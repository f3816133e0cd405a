"""crosswise benchmark: the live, crowd and train workloads.

    python3 perfbench/run.py --workload live --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # the three in turn

Run from the root of a checkout; the package is imported from ``src/``.
For each run this script

1. generates the workload's inputs from ``--seed`` in a separate process
   (``gen.py``), cached under ``.perfbench_cache/`` by code hash, workload,
   scenario (size included) and seed;
2. binds a loopback UDP receiver for I2V alerts and drains it while
3. the measured process (``workload.py``) sets up, runs the timed stage and
   verifies its outputs; with ``--trace 1`` an untraced and a traced process
   run one after the other, and the traced one yields per-layer metrics;
4. checks that every alert arrived as exactly one ``crosswise/1`` datagram
   and that the input digests, output counts and window digests equal the
   entry for this workload, size and seed in ``reference.json`` (made by
   ``make_reference.py``; a seed with no entry is reported as unverified),
   prints each metric with unit and sample count, writes the full report,
   and prints the result line last.

``--seconds`` sets the amount of work: each workload's stream is sized so
that its timed stage takes about that long on a 2-core x86-64 machine with
single-threaded OpenBLAS. The work is fixed per size and seed, not per
elapsed time, so a faster commit is measured on the same frames.

Load model: one client, closed loop. The stream is replayed as fast as the
engine takes it; even a dense scene costs well under the camera's 50 ms
frame period, so per-frame service time is the latency a camera sees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from spans import ALL_WORKLOADS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ALERT_KEYS = {"schema", "msg_type", "track_id", "crosswalk", "prob", "ts_ms",
              "frame_idx", "vru_class"}
BLAS_THREADS = 1  # threaded OpenBLAS spikes the forward p99 to 14-32 ms at B=2..8
MIN_VRUS = 12     # the train split needs enough tracks for 70/15/15
SETUP_REPS = 5    # setup_s is the median of this many set-ups in one run
KEEP_STREAMS = 12  # cached seeds per workload: one ten-seed set and spare
REFERENCE = HERE / "reference.json"
NOISY = {"noise_sigma": 2.0, "dropout": 0.05}

# Why each workload exists is in README.md. The timed stage replays the
# stream ``passes`` times (on train, each pass is followed by a training run),
# and throughputs come from the slowest pass (see ``slowest`` in workload.py);
# sizes are VRUs per second of the whole timed stage on the reference machine.
WORKLOADS = {
    "live": {"kind": "stream", "vrus_per_s": 6.7, "passes": 3,
             "scenario": {**NOISY, "max_concurrent": 5}},
    # max_concurrent 20 reaches the generator's 12-frame spawn gap
    "crowd": {"kind": "stream", "vrus_per_s": 5.6, "passes": 3,
              "scenario": {**NOISY, "max_concurrent": 20}},
    "train": {"kind": "train", "vrus_per_s": 6.5, "passes": 3, "epochs": 2,
              "scenario": {**NOISY, "max_concurrent": 5}},
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def code_hash() -> str:
    files = sorted((SRC / "crosswise").glob("*.py")) + [HERE / "gen.py"]
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:12]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every run
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(script: str, job: dict, job_path: Path, timeout: float) -> None:
    job_path.write_text(json.dumps(job, indent=1) + "\n")
    proc = subprocess.run([sys.executable, str(HERE / script), str(job_path)],
                          env=child_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")


class AlertReceiver:
    """Loopback UDP socket drained by a thread while the workload runs."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.port = self.sock.getsockname()[1]
        self.datagrams: list[bytes] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        while not self._stop.is_set():
            try:
                self.datagrams.append(self.sock.recv(65535))
            except socket.timeout:
                continue

    def close(self) -> list[bytes]:
        """Stop the thread, take what is still queued, and close the socket."""
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise BenchError("alert receiver thread did not stop")
        self.sock.setblocking(False)
        try:
            while True:
                self.datagrams.append(self.sock.recv(65535))
        except BlockingIOError:
            pass
        self.sock.close()
        return self.datagrams


def check_datagrams(sent: list, datagrams: list[bytes], failures: list) -> int:
    """Each alert sent must arrive as exactly one well-formed datagram."""
    got = Counter()
    malformed = 0
    for raw in datagrams:
        msg = json.loads(raw)
        if set(msg) != ALERT_KEYS or msg["schema"] != "crosswise/1":
            malformed += 1
            continue
        got[(msg["track_id"], msg["crosswalk"], msg["frame_idx"])] += 1
    want = Counter(tuple(a) for a in sent)
    missed = sum(1 for key, n in want.items() for _ in range(n) if got[key] != n)
    extra = sum(n for key, n in got.items() if key not in want)
    if missed or extra or malformed:
        failures.append(f"datagrams: {missed} alerts not received exactly once, "
                        f"{extra} unexpected, {malformed} malformed")
    return missed + extra + malformed


def workload_size(name: str, seconds: int) -> int:
    return max(MIN_VRUS, round(WORKLOADS[name]["vrus_per_s"] * seconds))


def prune_cache(inputs: Path, base: Path, name: str) -> None:
    """Drop inputs made by other code, and all but the newest streams of ``name``.

    A live or crowd stream takes about 35 MB at the default size.
    """
    for d in inputs.iterdir():
        if d.is_dir() and d != base:
            shutil.rmtree(d)
    streams = sorted(base.glob(f"{name}-n*"), key=lambda d: d.stat().st_mtime)
    for d in streams[:max(0, len(streams) - KEEP_STREAMS + 1)]:
        shutil.rmtree(d)


def scenario_of(name: str, seed: int, seconds: int) -> dict:
    return {"n_vrus": workload_size(name, seconds), "seed": seed,
            **WORKLOADS[name]["scenario"]}


def prepare_inputs(name: str, scenario: dict, cache: Path) -> tuple[dict, bool]:
    """Generate (or reuse) the workload's input files; return their paths."""
    tag = hashlib.sha256(json.dumps(scenario, sort_keys=True).encode()).hexdigest()[:8]
    base = cache / "inputs" / code_hash()
    model_dir = base / "model"
    stream_dir = base / f"{name}-n{scenario['n_vrus']}-s{scenario['seed']}-{tag}"
    cached = stream_dir.exists() and model_dir.exists()
    if not cached:
        base.mkdir(parents=True, exist_ok=True)
        prune_cache(base.parent, base, name)
        job = {"model_dir": str(model_dir), "stream_dir": str(stream_dir),
               "scenario": scenario}
        run_child("gen.py", job, base / f"gen-job-{os.getpid()}.json", timeout=800)
    os.utime(stream_dir)  # newest use, for prune_cache
    files = {"geometry": model_dir / "geometry.json", "weights": model_dir / "weights.json",
             "stream": stream_dir / "stream.jsonl", "labels": stream_dir / "labels.json",
             "gen": stream_dir / "gen.json"}
    return {k: str(v) for k, v in files.items()}, cached


def reference_key(scenario: dict) -> str:
    return f"n{scenario['n_vrus']}-s{scenario['seed']}"


def load_reference(name: str, scenario: dict):
    """The stored entry for this workload, size and seed, or None."""
    entries = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    entry = entries.get(name, {}).get(reference_key(scenario))
    if entry is None or entry["scenario"] != scenario:
        return None
    return entry["observed"]


def check_reference(expected, observed: dict, result: dict) -> None:
    """Every stored value must be observed again; each mismatch is a failure."""
    if expected is None:
        return
    for key, want in expected.items():
        result["attempted"] += 1
        if observed.get(key) != want:
            result["failed"] += 1
            result["failures"].append(f"{key}: {observed.get(key)} against reference {want}")


def measure(name: str, seed: int, files: dict, out_dir: Path, trace: bool,
            expected=None, single_pass: bool = False) -> dict:
    """One measured process, with its own alert receiver.

    ``expected`` is the stored reference entry, or None to skip that check.
    A traced process, or one asked for a ``single_pass``, makes one pass.
    """
    w = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    receiver = AlertReceiver()
    job = {"kind": w["kind"], "files": files, "out_dir": str(out_dir), "trace": trace,
           "setup_reps": SETUP_REPS, "alert_port": receiver.port,
           "epochs": w.get("epochs"), "train_seed": seed,
           "passes": 1 if trace or single_pass else w["passes"],
           "result": str(out_dir / "result.json")}
    try:
        run_child("workload.py", job, out_dir / "job.json", timeout=170)
    finally:
        datagrams = receiver.close()
    result = json.loads((out_dir / "result.json").read_text())
    if w["kind"] == "stream":
        result["attempted"] += len(result["alerts_sent"])
        result["failed"] += check_datagrams(result["alerts_sent"], datagrams,
                                            result["failures"])
        result["datagrams_received"] = len(datagrams)
        del result["alerts_sent"]
    check_reference(expected, result["observed"], result)
    return result


def bench_workload(name: str, seed: int, seconds: int, trace: bool, cache: Path) -> dict:
    t0 = time.perf_counter()
    scenario = scenario_of(name, seed, seconds)
    files, cached = prepare_inputs(name, scenario, cache)
    gen_wall = time.perf_counter() - t0
    expected = load_reference(name, scenario)
    out_dir = cache / "runs" / name  # outputs of the latest run only
    untraced = measure(name, seed, files, out_dir / "untraced", False, expected)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "reference": {"key": reference_key(scenario),
                            "status": "checked" if expected else "unverified"},
              "load_generator": {**json.loads(Path(files["gen"]).read_text()),
                                 "cached": cached, "prepare_wall_s": gen_wall},
              "env": untraced["env"], "untraced": untraced,
              "attempted": untraced["attempted"], "failed": untraced["failed"]}
    if not trace:
        report["metrics"] = untraced["metrics"]
        report["report_only"] = untraced["extra_metrics"]
        return report
    traced = measure(name, seed, files, out_dir / "traced", True, expected)
    values = dict(traced["per_layer"])
    values["pipeline.alerts_dropped"] = traced.get("alerts_dropped", 0)
    values["evaluate.labeled_window_ratio"] = traced.get("labeled_window_ratio", 0.0)
    metrics, report_only = {}, {}
    for metric_name, (unit, scope, moves) in PER_LAYER.items():
        if name not in scope:
            continue
        entry = {"value": float(values[metric_name]), "unit": unit, "moves": moves}
        (metrics if scope == ALL_WORKLOADS else report_only)[metric_name] = entry
    # a property of the wrappers, not of the program: reported, never gated
    untraced_fps = statistics.median(untraced["pass_fps"])
    report_only["trace.overhead_pct"] = {
        "value": (untraced_fps - traced["pass_fps"][0]) / untraced_fps * 100, "unit": "%",
        "moves": "none: traced fps against the untraced passes' median fps"}
    report.update(traced=traced, metrics=metrics, report_only=report_only,
                  attempted=untraced["attempted"] + traced["attempted"],
                  failed=untraced["failed"] + traced["failed"])
    return report


def print_report(report: dict, path: Path) -> None:
    gen = report["load_generator"]
    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}  "
          f"trace={int(report['trace'])}")
    print(f"load generator: {gen['vrus']} VRUs, {gen['frames']} frames, "
          f"{gen['detections_per_frame_mean']:.1f} detections/frame (max "
          f"{gen['detections_per_frame_max']}), generated in {gen['generate_s']:.2f} s, "
          f"{'cached' if gen['cached'] else 'fresh'}")
    print("env: " + json.dumps(report["env"]))
    for group in ("metrics", "report_only"):
        for key, m in report[group].items():
            extra = f"n={m['samples']}" if "samples" in m else f"moves {m['moves']}"
            tag = "" if group == "metrics" else "  [report only]"
            print(f"  {key:30s} {m['value']:14.4f} {m['unit']:6s} {extra}{tag}")
    if "soak" in report["untraced"]:
        series = report["untraced"]["soak"]["chunk_fps"]
        print(f"soak: fps per {report['untraced']['soak']['chunk_frames']}-frame chunk: "
              + " ".join(f"{v:.0f}" for v in series))
    ref = report["reference"]
    if ref["status"] == "checked":
        print(f"reference: checked against {REFERENCE.name} entry "
              f"{report['workload']} {ref['key']}")
    else:
        print(f"reference: UNVERIFIED, {REFERENCE.name} has no entry for "
              f"{report['workload']} {ref['key']}; only the self-checks ran")
    print(f"verification: attempted={report['attempted']} failed={report['failed']}")
    for msg in report["untraced"]["failures"] + report.get("traced", {}).get("failures", []):
        print(f"  FAILED: {msg}")
    print(f"report: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache", type=Path, default=ROOT / ".perfbench_cache")
    args = parser.parse_args(argv)
    if not (SRC / "crosswise" / "__init__.py").is_file():
        print(f"perfbench: no crosswise package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            report = bench_workload(name, args.seed, args.seconds, bool(args.trace),
                                    args.cache)
            path = args.cache / "reports" / f"{name}-s{args.seed}-t{args.trace}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(report, indent=1) + "\n")
            print_report(report, path)
            line["attempted"] += report["attempted"]
            line["failed"] += report["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for key, m in report["metrics"].items():
                line["metrics"][prefix + key] = {"value": m["value"], "unit": m["unit"]}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    line["correct"] = line["failed"] == 0
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
