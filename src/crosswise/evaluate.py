"""Metrics, dataset assembly from record streams, training, and the
head-count / feature-ablation experiments.

Crosswalk B is the positive class throughout; the generator targets a 50/50
A/B split so single-class precision/recall stay representative. Reported
experiment tables juxtapose synthetic results with the published reference
numbers (clearly labeled); the synthetic benchmark claims directions and
mechanisms, never the published magnitudes.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .features import FeatureWindow, mask_for_groups
from .geom import IntersectionGeometry
from .ingest import SAMPLE_EVERY, FrameRecord, VruTruth
from .jsonio import check_json_numbers, refuse_unknown_keys
from .model import (WEIGHT_DTYPES, ModelConfig, ModelParams, backward_batch,
                    bce_from_logits, forward_batch, init_params, sigmoid)
from .optim import AdamWState, PlateauScheduler, adamw_step, clip_gradients
from .pipeline import Pipeline

POSITIVE_LABEL = "B"


# --- confusion counts and metrics ---------------------------------------------


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @classmethod
    def from_predictions(cls, y_true: np.ndarray, y_pred: np.ndarray) -> "ConfusionCounts":
        y_true = np.asarray(y_true).astype(bool)
        y_pred = np.asarray(y_pred).astype(bool)
        return cls(tp=int(np.sum(y_pred & y_true)),
                   tn=int(np.sum(~y_pred & ~y_true)),
                   fp=int(np.sum(y_pred & ~y_true)),
                   fn=int(np.sum(~y_pred & y_true)))


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]


def metrics(c: ConfusionCounts) -> Metrics:
    """Accuracy, precision, recall, F1. Metrics with a zero denominator are
    reported as None (undefined), not as 0."""
    if c.total == 0:
        raise ValueError("metrics need at least one sample")
    acc = (c.tp + c.tn) / c.total
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    if precision is None or recall is None or (precision + recall) == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return Metrics(acc, precision, recall, f1)


# --- window dataset -------------------------------------------------------------

TRAIN_FRACTION = 0.70  # of the track ids; the test split takes what the two leave
VAL_FRACTION = 0.15


@dataclass
class WindowDataset:
    x: np.ndarray          # (N, 5, 16)
    y: np.ndarray          # (N,) 0 = crosswalk A, 1 = crosswalk B
    track_ids: np.ndarray  # (N,)

    def __len__(self) -> int:
        return self.x.shape[0]

    def sha256(self) -> str:
        h = hashlib.sha256()
        h.update(self.x.tobytes())
        h.update(self.y.tobytes())
        h.update(self.track_ids.tobytes())
        return h.hexdigest()[:16]

    def subset(self, idx: np.ndarray) -> "WindowDataset":
        return WindowDataset(self.x[idx], self.y[idx], self.track_ids[idx])

    def masked(self, keep: np.ndarray) -> "WindowDataset":
        x = self.x * keep.astype(self.x.dtype)
        return WindowDataset(x, self.y.copy(), self.track_ids.copy())

    def split_by_track(self, seed: int
                       ) -> tuple["WindowDataset", "WindowDataset", "WindowDataset"]:
        """70/15/15 split on track ids; a track's windows never straddle splits."""
        ids = np.unique(self.track_ids)
        rng = np.random.default_rng(seed)
        rng.shuffle(ids)
        n = len(ids)
        n_tr = int(round(TRAIN_FRACTION * n))
        n_val = int(round(VAL_FRACTION * n))
        parts = []
        for grp in (ids[:n_tr], ids[n_tr:n_tr + n_val], ids[n_tr + n_val:]):
            idx = np.flatnonzero(np.isin(self.track_ids, grp))
            if idx.size == 0:
                raise ValueError("empty split; dataset has too few tracks")
            parts.append(self.subset(idx))
        return tuple(parts)


MATCH_MAX_DIST = 30.0   # px, mean over shared sampled frames
MATCH_MIN_SAMPLES = 3


def match_tracks_to_truth(track_samples: dict[int, dict[int, tuple[float, float]]],
                          truths: Sequence[VruTruth]) -> dict[int, VruTruth]:
    """Assign each tracker track to the ground-truth VRU it followed.

    Scored by mean center distance over sampled frames both sides observed;
    a truth may absorb several tracks (fragmented identities keep their
    label), unmatched tracks are dropped from the dataset.
    """
    truth_samples = [{f: (x, y) for f, x, y in t.samples} for t in truths]
    # Only truths sampled on one of the track's frames can reach the minimum
    # overlap; visiting them in list order keeps the strict-less tie-break.
    truths_at: dict[int, list[int]] = {}
    for ti, tsamp in enumerate(truth_samples):
        for f in tsamp:
            truths_at.setdefault(f, []).append(ti)
    out: dict[int, VruTruth] = {}
    for tid, samples in track_samples.items():
        best: tuple[float, VruTruth] | None = None
        overlap = Counter(ti for f in samples for ti in truths_at.get(f, ()))
        for ti in sorted(overlap):
            if overlap[ti] < MATCH_MIN_SAMPLES:
                continue
            truth, tsamp = truths[ti], truth_samples[ti]
            common = [f for f in samples if f in tsamp]
            d = float(np.mean([
                np.hypot(samples[f][0] - tsamp[f][0], samples[f][1] - tsamp[f][1])
                for f in common]))
            if d <= MATCH_MAX_DIST and (best is None or d < best[0]):
                best = (d, truth)
        if best is not None:
            out[tid] = best[1]
    return out


def build_dataset(records: Iterable[FrameRecord], truths: Sequence[VruTruth],
                  geometry: IntersectionGeometry) -> WindowDataset:
    """Run the real tracking+feature pipeline over a stream and label the
    emitted windows with the matched ground-truth crosswalk."""
    pipe = Pipeline(geometry, params=None)
    windows: list[FeatureWindow] = []
    track_samples: dict[int, dict[int, tuple[float, float]]] = {}
    for rec in records:
        out = pipe.step(rec)
        windows.extend(out.windows)
        if rec.frame_idx % SAMPLE_EVERY == 0:
            for tid, track in pipe.table.tracks.items():
                if track.last_seen == rec.frame_idx:
                    track_samples.setdefault(tid, {})[rec.frame_idx] = track.center

    assignment = match_tracks_to_truth(track_samples, truths)
    xs, ys, tids = [], [], []
    for win in windows:
        truth = assignment.get(win.track_id)
        if truth is None:
            continue
        xs.append(win.matrix)
        ys.append(1.0 if truth.label == POSITIVE_LABEL else 0.0)
        tids.append(win.track_id)
    if not xs:
        raise ValueError("no labeled windows produced from the stream")
    return WindowDataset(np.stack(xs), np.asarray(ys), np.asarray(tids, dtype=int))


# --- training --------------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    lr: float = 2.5e-4
    weight_decay: float = 1e-4
    clip_norm: float = 1.0
    seed: int = 0
    d_h: int = ModelConfig.d_h
    d_ff: int = ModelConfig.d_ff
    n_heads: int = ModelConfig.n_heads
    dropout: float = ModelConfig.dropout
    dtype: str = "float32"  # training profile; gradient checks run in float64

    def __post_init__(self):
        check_json_numbers(vars(self), TrainConfig)
        if not (self.epochs >= 1 and self.batch_size >= 1):
            raise ValueError(f"epochs and batch_size must be at least 1, "
                             f"got {self.epochs} and {self.batch_size}")
        if not (self.lr > 0 and self.clip_norm > 0):
            raise ValueError(f"lr and clip_norm must be > 0, got {self.lr} and {self.clip_norm}")
        if not (self.weight_decay >= 0 and self.seed >= 0):
            raise ValueError(f"weight_decay and seed must be >= 0, "
                             f"got {self.weight_decay} and {self.seed}")
        if self.dtype not in WEIGHT_DTYPES:
            raise ValueError(f"dtype must be one of {WEIGHT_DTYPES}, got {self.dtype!r}")
        self.model_config()  # checks the model fields

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        refuse_unknown_keys(obj, cls.__dataclass_fields__, "train config")
        return cls(**obj)

    def model_config(self) -> ModelConfig:
        return ModelConfig(d_h=self.d_h, n_heads=self.n_heads, d_ff=self.d_ff,
                           dropout=self.dropout)


@dataclass
class TrainResult:
    params: ModelParams
    train_loss: list[float]
    val_loss: list[float]
    lr_trace: list[float]
    best_epoch: int
    test_counts: ConfusionCounts
    test_metrics: Metrics
    wall_clock_s: float

    def summary(self) -> dict:
        return {
            "best_epoch": self.best_epoch,
            "epochs_run": len(self.val_loss),
            "test": asdict(self.test_metrics),
            "wall_clock_s": self.wall_clock_s,
        }


EVAL_CHUNK = 64  # windows per evaluation forward


def _chunk_logits(params: ModelParams, ds: WindowDataset
                  ) -> Iterator[tuple[slice, np.ndarray]]:
    """The logits of each forward of ``EVAL_CHUNK`` windows, with its slice of ``ds``."""
    for i in range(0, len(ds), EVAL_CHUNK):
        chunk = slice(i, min(i + EVAL_CHUNK, len(ds)))
        yield chunk, forward_batch(ds.x[chunk], params)[1]["logit"]


def _eval_loss(params: ModelParams, ds: WindowDataset) -> float:
    """Mean BCE over ``ds``, summed forward by forward."""
    losses = [bce_from_logits(logit, ds.y[chunk]) * logit.shape[0]
              for chunk, logit in _chunk_logits(params, ds)]
    return float(sum(losses) / len(ds))


def evaluate_params(params: ModelParams, ds: WindowDataset) -> ConfusionCounts:
    preds = [sigmoid(logit) >= 0.5 for _, logit in _chunk_logits(params, ds)]
    return ConfusionCounts.from_predictions(ds.y.astype(bool), np.concatenate(preds))


@functools.cache
def _raise_mmap_threshold() -> None:
    """Keep the pages of freed train steps, once per process.

    Each step frees its arrays (about 21 MB at bench size) as it returns.
    glibc hands a free heap top of more than twice its mmap threshold back to
    the OS, so every step would page-fault that memory in again (about 3.4k
    minor faults a step, 9% of train throughput at bench size). Freeing one
    untouched block raises glibc's dynamic threshold to the block's size (up
    to 32 MiB) and keeps those pages; it costs no resident memory, and other
    allocators ignore it. Once is enough: the threshold stays raised, and a
    second block would come from the heap, where numpy advises a block of
    4 MiB or more for huge pages.
    """
    np.empty(24 << 20, np.uint8)


def _train_step(params: ModelParams, xb: np.ndarray, yb: np.ndarray,
                drop_rng: np.random.Generator, state: AdamWState, lr: float,
                cfg: TrainConfig) -> float:
    """One forward, backward, clip and AdamW update; returns the batch's summed
    loss. The step's cache and gradients are freed on return, before the next
    step's forward builds its own."""
    _, cache = forward_batch(xb, params, mode="train", rng=drop_rng)
    loss = bce_from_logits(cache["logit"], yb) * len(yb)
    grads = backward_batch(cache, yb, params)
    clip_gradients(grads, cfg.clip_norm)
    adamw_step(params, grads, state, lr, cfg.weight_decay)
    return loss


def train(dataset: WindowDataset, cfg: TrainConfig) -> TrainResult:
    """Mini-batch AdamW training with clipping and plateau LR halving.

    Deterministic per seed: split, shuffles, init, and dropout masks all
    derive from cfg.seed. Returns the best-validation-loss parameters.
    """
    t0 = time.perf_counter()
    _raise_mmap_threshold()
    dtype = np.dtype(cfg.dtype)
    train_ds, val_ds, test_ds = dataset.split_by_track(cfg.seed)
    train_x = train_ds.x.astype(dtype)
    params = init_params(cfg.model_config(), seed=cfg.seed, dtype=dtype)
    state = AdamWState.init(params)
    sched = PlateauScheduler(lr=cfg.lr)
    shuffle_rng = np.random.default_rng(cfg.seed + 1)
    drop_rng = np.random.default_rng(cfg.seed + 2)

    best_val = np.inf
    best_epoch = 0
    best_params = params.copy()
    train_losses, val_losses, lrs = [], [], []
    n = len(train_ds)
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for i in range(0, n, cfg.batch_size):
            idx = perm[i:i + cfg.batch_size]
            epoch_loss += _train_step(params, train_x[idx], train_ds.y[idx], drop_rng,
                                      state, sched.lr, cfg)
        train_losses.append(epoch_loss / n)

        val_loss = _eval_loss(params, val_ds)
        val_losses.append(val_loss)
        lrs.append(sched.update(val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            # in place: a new copy would be allocated while the old one lives
            best_params.flat[...] = params.flat

    counts = evaluate_params(best_params, test_ds)
    return TrainResult(best_params, train_losses, val_losses, lrs, best_epoch,
                       counts, metrics(counts), time.perf_counter() - t0)


# --- experiments -------------------------------------------------------------------


@dataclass
class ExperimentReport:
    name: str
    rows: list[dict]
    seeds: dict
    dataset_hash: str
    epochs: int
    wall_clock_s: float
    notes: str = ""


def _report(name: str, rows: list[dict], dataset: WindowDataset, cfg: TrainConfig,
            t0: float, notes: str) -> ExperimentReport:
    """The report of an experiment that started at perf_counter() ``t0``."""
    return ExperimentReport(name, rows, {"train": cfg.seed}, dataset.sha256(), cfg.epochs,
                            time.perf_counter() - t0, notes)


GROUP_ORDER = ("L", "M", "G", "P")


def ablation(dataset: WindowDataset, cfg: TrainConfig,
             groups: Sequence[str] = GROUP_ORDER) -> ExperimentReport:
    """Train the incremental feature chains (L, L+M, ...) on identical
    seeds and splits; masked slots are exactly zero."""
    chain = [g for g in GROUP_ORDER if g in set(groups)]
    if not chain:
        raise ValueError("ablation needs at least one feature group")
    t0 = time.perf_counter()
    rows = []
    for i in range(1, len(chain) + 1):
        active = chain[:i]
        keep = mask_for_groups(active)
        result = train(dataset.masked(keep), cfg)
        rows.append({"config": "+".join(active), "groups": list(active),
                     "masked_slots": int((~keep).sum()),
                     **asdict(result.test_metrics),
                     "best_epoch": result.best_epoch})
    return _report("feature-ablation", rows, dataset, cfg, t0,
                   "synthetic benchmark; direction-only comparison")


REFERENCE_TWO_HEAD = {"accuracy": 0.9645, "precision": 0.9638,
                      "recall": 0.9668, "f1": 0.9653}


def head_sweep(dataset: WindowDataset, cfg: TrainConfig,
               heads: Sequence[int] = (1, 2, 4)) -> ExperimentReport:
    """Train 1/2/4-head configurations, identical everything else.

    Head slicing keeps the parameter count constant across the sweep. The
    report appends the published two-head reference row, clearly labeled as
    measured on a different (private) dataset.
    """
    t0 = time.perf_counter()
    rows = []
    for nh in heads:
        result = train(dataset, replace(cfg, n_heads=nh))
        rows.append({"config": f"{nh}-head", "n_heads": nh,
                     "n_params": result.params.n_params(),
                     **asdict(result.test_metrics),
                     "best_epoch": result.best_epoch})
    rows.append({"config": "2-head reference", "source": "paper, private dataset",
                 **REFERENCE_TWO_HEAD})
    return _report("head-count-sweep", rows, dataset, cfg, t0,
                   "reference row is not a synthetic result")
