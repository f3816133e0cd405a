"""AdamW with decoupled weight decay, global-norm clipping, plateau LR halving."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
PLATEAU_FACTOR = 0.5  # the LR is multiplied by this on a plateau
PLATEAU_PATIENCE = 2  # epochs without improvement that make a plateau
PLATEAU_THRESHOLD = 1e-4  # the val-loss drop below which an epoch has not improved
LR_FLOOR = 1e-6  # the plateau halving never takes the LR below this


@dataclass
class AdamWState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, params: ModelParams) -> "AdamWState":
        return cls(step=0,
                   m={n: np.zeros_like(t) for n, t in params.named_tensors()},
                   v={n: np.zeros_like(t) for n, t in params.named_tensors()})


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return math.sqrt(total)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> None:
    """Scale all gradients in place by max_norm/norm when the global L2 norm
    exceeds it."""
    norm = global_grad_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale


def adamw_step(params: ModelParams, grads: dict[str, np.ndarray],
               state: AdamWState, lr: float, weight_decay: float) -> None:
    """One update: decoupled decay first, then bias-corrected Adam moments.

    Mutates params/state in place. Non-finite gradients are a hard error
    rather than something to silently step through.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, theta in params.named_tensors():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
        if weight_decay:
            theta *= 1.0 - lr * weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


class PlateauScheduler:
    """Halve the LR after two consecutive epochs without val-loss improvement.

    An epoch counts as improved when it beats the best seen loss by more than
    PLATEAU_THRESHOLD. After a halving the counter resets; the LR never drops
    below LR_FLOOR.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.best = math.inf
        self.stale_epochs = 0

    def update(self, val_loss: float) -> float:
        if val_loss < self.best - PLATEAU_THRESHOLD:
            self.best = val_loss
            self.stale_epochs = 0
        else:
            self.stale_epochs += 1
            if self.stale_epochs >= PLATEAU_PATIENCE:
                self.lr = max(LR_FLOOR, self.lr * PLATEAU_FACTOR)
                self.stale_epochs = 0
        return self.lr
