"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy fixtures (the 200-track clean benchmark, the 1000-track noisy
benchmark, and the model trained on it) are session-scoped in conftest.py
and shared across criteria. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from fractions import Fraction

import numpy as np

from crosswise.evaluate import (ConfusionCounts, TrainConfig, ablation,
                                match_tracks_to_truth, metrics, train)
from crosswise.features import FEATURE_DIM, WindowAssembler
from crosswise.ingest import SAMPLE_EVERY, ScenarioSpec, generate_scenario
from crosswise.model import (ModelConfig, backward_batch, bce_from_logits, forward_batch,
                             init_params, load_params, params_to_json_bytes)
from crosswise.optim import PlateauScheduler
from crosswise.pipeline import Pipeline, TrackState, bench, run
from tests.test_model import gru_oracle_error, mha_oracle_error
from tests.test_pipeline import crossing_pose_binds, poses_by_track


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


def test_01_gradient_correctness():
    t0 = time.perf_counter()
    cfg = ModelConfig()  # reference: d_h=256, 2 heads, d_ff=512, dropout 0.5
    params = init_params(cfg, seed=101)
    x = np.random.default_rng(102).standard_normal((1, 5, FEATURE_DIM))
    y = np.array([1.0])

    def loss():
        _, cache = forward_batch(x, params, mode="train",
                                 rng=np.random.default_rng(103))
        return bce_from_logits(cache["logit"], y), cache

    _, cache = loss()
    grads = backward_batch(cache, y, params)
    eps = 1e-5
    rng = np.random.default_rng(104)
    checked = 0
    max_rel = 0.0
    tensors_covered = set()
    for name, tensor in params.named_tensors():
        flat = tensor.reshape(-1)
        for _ in range(6):
            i = int(rng.integers(flat.size))
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = loss()
            flat[i] = orig - eps
            lm, _ = loss()
            flat[i] = orig
            numeric = (lp - lm) / (2 * eps)
            analytic = grads[name].reshape(-1)[i]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
            max_rel = max(max_rel, rel)
            checked += 1
        tensors_covered.add(name)
    elapsed = time.perf_counter() - t0
    assert checked >= 200
    assert tensors_covered == {n for n, _ in params.named_tensors()}
    assert max_rel <= 1e-4
    assert elapsed < 60.0
    report("01 gradient-correctness",
           f"{checked} params, max rel err {max_rel:.2e}, {elapsed:.1f}s")


def test_02_equation_oracles():
    # the gate equations chained over 2-5 steps against both GRU layer bodies,
    # the per-head attention transcription against _mha_forward
    worst_gru = {"train": 0.0, "infer": 0.0}
    worst_attn = 0.0
    for seed in range(100):
        for name, err in gru_oracle_error(seed).items():
            worst_gru[name] = max(worst_gru[name], err)
        worst_attn = max(worst_attn, mha_oracle_error(seed))
    assert max(worst_gru.values()) <= 1e-12
    assert worst_attn <= 1e-10
    report("02 equation-oracles",
           f"100 seeds, gru train body {worst_gru['train']:.1e}, infer body "
           f"{worst_gru['infer']:.1e}, attention {worst_attn:.1e}")


def test_03_metric_identities():
    rng = np.random.default_rng(301)
    done = 0
    while done < 20:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 500, 4))
        if tp + tn + fp + fn == 0:
            continue
        c = ConfusionCounts(tp, tn, fp, fn)
        m = metrics(c)
        assert m.accuracy == float(Fraction(tp + tn, c.total))
        if tp + fp > 0:
            assert m.precision == float(Fraction(tp, tp + fp))
        if tp + fn > 0:
            assert m.recall == float(Fraction(tp, tp + fn))
        if m.precision and m.recall:
            harmonic = 2.0 / (1.0 / m.precision + 1.0 / m.recall)
            assert abs(m.f1 - harmonic) <= 1e-12
        done += 1
    report("03 metric-identities", "20 random confusion matrices, exact")


def test_04_windowing_arithmetic(geometry):
    for n_steps in range(13):
        asm = WindowAssembler(track_id=1)
        emitted = sum(
            asm.push(np.zeros(FEATURE_DIM), 10 * (k + 1)) is not None
            for k in range(n_steps))
        assert emitted == max(0, n_steps - 4)

    # end to end: a track observed from frame 0 emits windows at 50 and 60
    from tests.test_pipeline import waiting_stream
    pipe = Pipeline(geometry, params=None)
    emission_frames = []
    for rec in waiting_stream(61):
        out = pipe.step(rec)
        emission_frames.extend(w.end_frame_idx for w in out.windows)
    assert emission_frames == [50, 60]
    report("04 windowing-arithmetic",
           "max(0, n-4) holds; 50-frame track windows at 50 and 60")


def test_05_training_sanity(zero_noise_benchmark, noisy_benchmark,
                            noisy_model_result):
    clean = train(zero_noise_benchmark, TrainConfig(epochs=15, seed=6))
    assert clean.wall_clock_s < 600.0
    assert clean.test_metrics.accuracy >= 0.99
    noisy_acc = noisy_model_result.test_metrics.accuracy
    assert noisy_acc >= 0.90
    report("05 training-sanity",
           f"clean acc {clean.test_metrics.accuracy:.4f} in "
           f"{clean.wall_clock_s:.0f}s (15 epochs); noisy acc {noisy_acc:.4f}")


def test_06_ablation_direction(noisy_benchmark):
    cfg = TrainConfig(epochs=4, seed=11)
    rep = ablation(noisy_benchmark, cfg)
    acc = {row["config"]: row["accuracy"] for row in rep.rows}
    assert acc["L+M+G+P"] - acc["L"] >= 0.02
    assert acc["L+M+G+P"] >= acc["L+M+G"]
    report("06 ablation-direction",
           f"L {acc['L']:.4f} -> L+M+G {acc['L+M+G']:.4f} -> "
           f"full {acc['L+M+G+P']:.4f}")


def test_07_throughput(geometry):
    spec = ScenarioSpec(n_vrus=70, noise_sigma=1.0, dropout=0.02, seed=701,
                        max_concurrent=5)
    records, _ = generate_scenario(spec, geometry)
    assert len(records) >= 3000
    params = init_params(ModelConfig(), seed=702)
    rep = bench(records, geometry, params)
    assert rep["max_concurrent_tracks"] <= 10
    assert rep["end_to_end_fps"] >= 33.0
    assert rep["forward_ms_p50"] <= 5.0
    report("07 throughput",
           f"{rep['end_to_end_fps']:.0f} FPS over {rep['frames']} frames "
           f"({rep['max_concurrent_tracks']} tracks); forward p50 "
           f"{rep['forward_ms_p50']:.2f} ms (published: 33 FPS, 0.78 ms)")


def test_08_determinism_and_serialization(geometry, tmp_path):
    spec = ScenarioSpec(n_vrus=30, noise_sigma=1.0, dropout=0.03, seed=801)
    records, truths = generate_scenario(spec, geometry)
    from crosswise.evaluate import build_dataset
    dataset = build_dataset(records, truths, geometry)
    cfg = TrainConfig(epochs=3, seed=12)
    w1 = params_to_json_bytes(train(dataset, cfg).params)
    w2 = params_to_json_bytes(train(dataset, cfg).params)
    assert w1 == w2

    path = tmp_path / "w.json"
    path.write_bytes(w1)
    assert params_to_json_bytes(load_params(path)) == w1

    params = load_params(path)
    p1, p2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
    run(records, geometry, params, predictions_path=p1)
    run(records, geometry, params, predictions_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    report("08 determinism-serialization",
           "same seed: weight bytes identical; round-trip and prediction "
           "files byte-identical")


def test_09_pipeline_behavior(geometry, noisy_model_result):
    # (a) pose merging inactive while crossing: no step binds a pose to a
    # track whose zone is CROSSING after the step
    spec = ScenarioSpec(n_vrus=150, noise_sigma=2.0, dropout=0.05, seed=901)
    records, truths = generate_scenario(spec, geometry)
    params = noisy_model_result.params
    pipe = Pipeline(geometry, params)
    track_samples = {}
    track_alerts = {}
    track_preds = {}
    crossing_entry_ts = {}
    crossing_pose_merges = 0
    for rec in records:
        before = poses_by_track(pipe)
        out = pipe.step(rec)
        crossing_pose_merges += len(crossing_pose_binds(pipe, before))
        for tid, _, new in out.state_changes:
            if new is TrackState.CROSSING:
                crossing_entry_ts[tid] = rec.ts_ms
        for alert in out.alerts:
            track_alerts.setdefault(alert.track_id, []).append(alert)
        for pred in out.predictions:
            track_preds[pred.track_id] = pred
        if rec.frame_idx % SAMPLE_EVERY == 0:
            for tid, tr in pipe.table.tracks.items():
                if tr.last_seen == rec.frame_idx:
                    track_samples.setdefault(tid, {})[rec.frame_idx] = tr.center
    assert crossing_pose_merges == 0

    # (b) alert lead time positive for >= 95% of correctly predicted tracks
    assignment = match_tracks_to_truth(track_samples, truths)
    n_correct = 0
    n_positive_lead = 0
    for tid, pred in track_preds.items():
        truth = assignment.get(tid)
        entry_ts = crossing_entry_ts.get(tid)
        if truth is None or entry_ts is None:
            continue
        if pred.label != truth.label:
            continue
        n_correct += 1
        matching = [a.ts_ms for a in track_alerts.get(tid, [])
                    if a.crosswalk == truth.label]
        if matching and min(matching) < entry_ts:
            n_positive_lead += 1
    assert n_correct >= 100
    fraction = n_positive_lead / n_correct
    assert fraction >= 0.95
    report("09 pipeline-behavior",
           f"0 crossing-zone pose merges; positive lead time for "
           f"{n_positive_lead}/{n_correct} correctly predicted tracks "
           f"({100 * fraction:.1f}%)")


def test_10_lr_schedule():
    sched = PlateauScheduler(lr=2.5e-4)
    lrs = [sched.update(v) for v in (1.0, 1.0, 1.0)]
    assert lrs == [2.5e-4, 2.5e-4, 1.25e-4]

    sched = PlateauScheduler(lr=2.5e-4)  # LR_FLOOR is 1e-6
    trace = [sched.update(0.5) for _ in range(60)]
    assert trace[-1] == 1e-6
    assert min(trace) >= 1e-6

    sched = PlateauScheduler(lr=2.5e-4)
    improving = [sched.update(v) for v in (1.0, 0.8, 0.6, 0.4)]
    assert improving == [2.5e-4] * 4
    report("10 lr-schedule",
           "two flat epochs halve 2.5e-4 -> 1.25e-4; floor 1e-6 holds")
