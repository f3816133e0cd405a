"""Crossing-direction model: 2-layer GRU, multi-head self-attention encoder,
and a small classification head, with a hand-derived analytic backward pass.

All math is plain numpy; no autodiff. Forward runs batched over windows
(B, T, 16). Internals follow, per time step t of each GRU layer:

    z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)
    r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)
    g_t = tanh(x_t W_h + (r_t * h_{t-1}) U_h + b_h)
    h_t = (1 - z_t) * h_{t-1} + z_t * g_t

then one encoder block over the hidden sequence (scaled dot-product
attention per head on sliced Q/K/V, concat, output projection, residual +
layer norm, position-wise FFN, residual + layer norm), mean pooling over
time, FC 256->64 ReLU, FC 64->1, sigmoid. Class 1 is crosswalk B.

Training-mode dropout masks are drawn from a caller-supplied Generator so
two calls with identically seeded generators replay the same masks; the
finite-difference gradient checks rely on that.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator, Optional

import numpy as np

from .features import FEATURE_DIM, LAYOUT_HASH
from .jsonio import check_json_numbers, decode_object, refuse_unknown_keys

WEIGHT_FILE_VERSION = 4
WEIGHT_DTYPES = ("float32", "float64")


class ModelError(ValueError):
    pass


class LayoutMismatchError(ModelError):
    """Weights were produced against a different feature layout."""


@dataclass(frozen=True)
class ModelConfig:
    d_h: int = 256
    n_heads: int = 2
    d_ff: int = 512
    dropout: float = 0.5

    def __post_init__(self):
        dims = (self.d_h, self.n_heads, self.d_ff)
        # jsonio's integer rule: a weight file's "n_heads": true is no count,
        # and a numpy integer could not be written back to a weight file
        if not all(type(v) is int and v > 0 for v in dims):
            raise ModelError(f"d_h, n_heads, d_ff must be positive integers: {dims}")
        check_json_numbers(vars(self), ModelConfig, ModelError)
        if self.d_h % self.n_heads != 0:
            raise ModelError(f"d_h={self.d_h} not divisible by n_heads={self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError("dropout must be in [0, 1)")


@functools.lru_cache(maxsize=None)
def _layout(config: ModelConfig) -> tuple[tuple, int]:
    """The one list of parameter tensors: ((name, shape, start, stop), ...) in
    flat-buffer order, and the buffer size. A name is ``owner.attr``: the
    tensor is ``params.<owner>.<attr>``, with ``gru0``/``gru1`` as ``gru[i]``."""
    dm, dff = config.d_h, config.d_ff
    shapes = []
    for i, d_in in enumerate((FEATURE_DIM, dm)):
        shapes += [(f"gru{i}.w_{g}", (d_in, dm)) for g in "zrh"]
        shapes += [(f"gru{i}.u_{g}", (dm, dm)) for g in "zrh"]
        shapes += [(f"gru{i}.b_{g}", (dm,)) for g in "zrh"]
    shapes += [(f"attn.w_{p}", (dm, dm)) for p in "qkvo"]
    shapes += [("attn.w_ff1", (dm, dff)), ("attn.b_ff1", (dff,)),
               ("attn.w_ff2", (dff, dm)), ("attn.b_ff2", (dm,))]
    shapes += [(f"attn.ln{i}_{p}", (dm,)) for i in (1, 2) for p in ("gain", "bias")]
    shapes += [("head.w1", (dm, 64)), ("head.b1", (64,)),
               ("head.w2", (64, 1)), ("head.b2", (1,))]
    entries, start = [], 0
    for name, shape in shapes:
        stop = start + math.prod(shape)
        entries.append((name, shape, start, stop))
        start = stop
    return tuple(entries), start


@dataclass
class ModelParams:
    """All parameters in one contiguous 1-D buffer, ordered by ``_layout``.

    ``gru`` (one view per layer), ``attn`` and ``head`` hold views into
    ``flat``, named as in ``_layout``, so writes through them (or through
    ``named_tensors``) land in the buffer. ``attn.n_heads`` is
    ``config.n_heads``.
    """

    config: ModelConfig
    flat: np.ndarray
    gru: list[SimpleNamespace] = field(init=False, repr=False)
    attn: SimpleNamespace = field(init=False, repr=False)
    head: SimpleNamespace = field(init=False, repr=False)

    def __post_init__(self):
        size = _layout(self.config)[1]
        if self.flat.shape != (size,) or not self.flat.flags.c_contiguous:
            raise ModelError(f"parameter buffer must be contiguous ({size},), "
                             f"got {self.flat.shape}")
        groups: dict[str, dict[str, np.ndarray]] = {}
        for name, tensor in self.named_tensors():
            owner, attr = name.split(".")
            groups.setdefault(owner, {})[attr] = tensor
        self.gru = [SimpleNamespace(**groups["gru0"]), SimpleNamespace(**groups["gru1"])]
        self.attn = SimpleNamespace(**groups["attn"], n_heads=self.config.n_heads)
        self.head = SimpleNamespace(**groups["head"])

    def named_tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        for name, shape, start, stop in _layout(self.config)[0]:
            yield name, self.flat[start:stop].reshape(shape)

    def n_params(self) -> int:
        return self.flat.size

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(self.config, self.flat.astype(dtype))


@dataclass(frozen=True)
class Prediction:
    track_id: int
    p_b: float
    end_frame_idx: int

    def __post_init__(self):
        if not 0.0 <= self.p_b <= 1.0:
            raise ModelError(f"p_b out of [0,1]: {self.p_b}")

    @property
    def label(self) -> str:
        return "A" if self.p_b < 0.5 else "B"


# --- initialization ----------------------------------------------------------

# Weight matrices are drawn owner by owner in this order, not in layout order;
# changing it would change the initial weights of every seed.
_INIT_DRAW_ORDER = ("attn", "head", "gru0", "gru1")


def init_params(config: ModelConfig, seed: int = 0, dtype=np.float64) -> ModelParams:
    """Xavier-uniform weights, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng(seed)
    params = ModelParams(config, np.zeros(_layout(config)[1], dtype))
    weights = sorted(((n, t) for n, t in params.named_tensors() if t.ndim == 2),
                     key=lambda nt: _INIT_DRAW_ORDER.index(nt[0].split(".")[0]))
    for _, w in weights:
        fan_in, fan_out = w.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, w.shape)
    params.attn.ln1_gain[...] = 1.0
    params.attn.ln2_gain[...] = 1.0
    return params


# --- primitives --------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) is 1 for x >= 0 and exp(-|x|) below, so this is the
    # overflow-free where(x >= 0, 1 / (1 + t), t / (1 + t)) in fewer ops
    return np.exp(np.minimum(x, 0)) / (1 + np.exp(-np.abs(x)))


def softmax_last(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


LN_EPS = 1e-5


def _layer_norm(x, gain, bias, keep_xhat: bool):
    """Layer norm over the last axis: (y, xhat, istd). ``x`` is normalized in
    place, so it becomes ``xhat``; unless ``keep_xhat``, ``y`` is written over
    it too (the same bytes) and ``xhat`` is returned as None."""
    x -= x.mean(axis=-1, keepdims=True)
    var = (x * x).mean(axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + LN_EPS)
    x *= istd
    y = gain * x if keep_xhat else np.multiply(x, gain, out=x)
    y += bias
    return y, (x if keep_xhat else None), istd


def _layer_norm_backward(dy, xhat, istd, gain):
    dgain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dbias = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dx = dy * gain  # d xhat, turned into dx in place; both means read it first
    proj = (dx * xhat).mean(axis=-1, keepdims=True)
    dx -= dx.mean(axis=-1, keepdims=True)
    dx -= xhat * proj
    dx *= istd
    return dx, dgain, dbias


def _dropout_keep(rng: Optional[np.random.Generator], shape, rate: float):
    """The boolean keep mask of a dropout layer; None when it drops nothing."""
    if rng is None or rate <= 0.0:
        return None
    return rng.random(shape) >= rate


def _apply_keep(x, keep, rate: float):
    """``x`` times the scaled mask ``keep / (1 - rate)``, which is rebuilt here
    in ``x``'s dtype rather than kept as floats."""
    return x if keep is None else x * (keep.astype(x.dtype) / (1.0 - rate))


# --- batched forward ----------------------------------------------------------


def _flat_gemm(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B, T, d) @ (d, e) as one 2-D GEMM."""
    b, t_len, d = a.shape
    return (a.reshape(b * t_len, d) @ w).reshape(b, t_len, w.shape[1])


def _outer_grad(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_{b,t} outer(a[b,t], d[b,t]) as one 2-D GEMM."""
    bt = a.shape[0] * a.shape[1]
    return a.reshape(bt, a.shape[2]).T @ d.reshape(bt, d.shape[2])


def _stash(cache: Optional[dict], **entries) -> None:
    """Adds ``entries`` to a train-mode cache; an inference forward has none."""
    if cache is not None:
        cache.update(entries)


def _gru_layer_forward(seq, layer, steps: Optional[list] = None) -> np.ndarray:
    """The layer's output (B, T, d_h) from a zero state. Given a list
    ``steps``, appends each step's gates ``(z, r, g)`` to it; backward reads
    ``h_{t-1}`` back from the output."""
    b, t_len, d = seq.shape
    dm = layer.u_z.shape[0]
    # input-side projections for all steps at once; the loop only carries h
    rows = seq.reshape(b * t_len, d)
    xw_zr = np.empty((2, b, t_len, dm), dtype=seq.dtype)  # z and r projections
    np.matmul(rows, layer.w_z, out=xw_zr[0].reshape(b * t_len, dm))
    np.matmul(rows, layer.w_r, out=xw_zr[1].reshape(b * t_len, dm))
    xw_zr[0] += layer.b_z
    xw_zr[1] += layer.b_r
    xw_h = _flat_gemm(seq, layer.w_h)
    xw_h += layer.b_h
    h = np.zeros((b, dm), dtype=seq.dtype)
    hs = np.empty((b, t_len, dm), dtype=seq.dtype)
    zr = np.empty((2, b, dm), dtype=seq.dtype)
    for t in range(t_len):
        np.matmul(h, layer.u_z, out=zr[0])
        np.matmul(h, layer.u_r, out=zr[1])
        zr += xw_zr[:, :, t]
        z, r = sigmoid(zr)
        g = (r * h) @ layer.u_h
        g += xw_h[:, t]
        np.tanh(g, out=g)
        if steps is not None:
            steps.append((z, r, g))
        h = (1.0 - z) * h
        h += z * g
        hs[:, t] = h
    return hs


def _mha_forward(h_seq, attn):
    b, t_len, dm = h_seq.shape
    nh = attn.n_heads
    dk = dm // nh
    q = _flat_gemm(h_seq, attn.w_q)
    k = _flat_gemm(h_seq, attn.w_k)
    v = _flat_gemm(h_seq, attn.w_v)
    qh = q.reshape(b, t_len, nh, dk).transpose(0, 2, 1, 3)
    kh = k.reshape(b, t_len, nh, dk).transpose(0, 2, 1, 3)
    vh = v.reshape(b, t_len, nh, dk).transpose(0, 2, 1, 3)
    a = softmax_last(qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(dk))
    o = (a @ vh).transpose(0, 2, 1, 3).reshape(b, t_len, dm)
    out = _flat_gemm(o, attn.w_o)
    return out, {"h": h_seq, "qh": qh, "kh": kh, "vh": vh, "a": a, "o": o}


def _encoder_forward(h_seq, attn, rate: float, rng: Optional[np.random.Generator],
                     cache: Optional[dict]):
    """The encoder block's output. Given a ``cache``, adds to it what backward
    reads (it rebuilds n1 from xhat1 and the ReLU mask from fr); without one,
    nothing is kept and each layer norm writes its output over its input.
    Each large local is dropped at its last read."""
    attn_out, mha_cache = _mha_forward(h_seq, attn)
    _stash(cache, **mha_cache)
    del mha_cache
    keep_attn = _dropout_keep(rng, attn_out.shape, rate)
    r1 = _apply_keep(attn_out, keep_attn, rate)
    del attn_out
    r1 += h_seq
    keep_xhat = cache is not None
    n1, xhat1, istd1 = _layer_norm(r1, attn.ln1_gain, attn.ln1_bias, keep_xhat)
    fr = _flat_gemm(n1, attn.w_ff1)
    fr += attn.b_ff1
    np.maximum(fr, 0.0, out=fr)
    f_out = _flat_gemm(fr, attn.w_ff2)
    f_out += attn.b_ff2
    keep_ffn = _dropout_keep(rng, f_out.shape, rate)
    r2 = _apply_keep(f_out, keep_ffn, rate)
    del f_out
    r2 += n1
    del n1
    n2, xhat2, istd2 = _layer_norm(r2, attn.ln2_gain, attn.ln2_bias, keep_xhat)
    _stash(cache, keep_attn=keep_attn, keep_ffn=keep_ffn, xhat1=xhat1, istd1=istd1,
           xhat2=xhat2, istd2=istd2, fr=fr)
    return n2


def forward_batch(x: np.ndarray, params: ModelParams, mode: str = "infer",
                  rng: Optional[np.random.Generator] = None) -> tuple[np.ndarray, dict]:
    """Probabilities of crosswalk B for a batch of windows (B, T, FEATURE_DIM).

    Returns (p of shape (B,), cache). Both modes run one body. Train mode
    needs a Generator for the dropout masks and caches what
    ``backward_batch`` reads; infer mode draws no mask, even given a
    Generator, and its cache holds only ``logit``, ``p`` and ``mode``.
    """
    dtype = params.flat.dtype
    x = np.asarray(x).astype(dtype, copy=False)
    if x.ndim != 3 or x.shape[2] != FEATURE_DIM:
        raise ModelError(f"expected (B, T, {FEATURE_DIM}) input, got {x.shape}")
    train = mode == "train"
    if train and rng is None:
        raise ModelError("train-mode forward needs a dropout Generator")
    # only train mode draws masks and keeps what backward_batch reads
    rng, cache = (rng, {}) if train else (None, None)
    steps0, steps1 = ([], []) if train else (None, None)
    rate = params.config.dropout

    # masks are drawn GRU output first, then encoder, then head; the trained
    # weight bytes of every seed depend on that order
    h1 = _gru_layer_forward(x, params.gru[0], steps0)
    keep_gru = _dropout_keep(rng, h1.shape, rate)
    h1d = _apply_keep(h1, keep_gru, rate)
    h2 = _gru_layer_forward(h1d, params.gru[1], steps1)
    # each GRU layer's input, output and gates; h2 is also the encoder's input
    _stash(cache, gru=((x, h1, steps0), keep_gru, (h1d, h2, steps1)))
    del h1, h1d
    enc = _encoder_forward(h2, params.attn, rate, rng, cache)

    pooled = enc.mean(axis=1)
    del enc
    a1 = pooled @ params.head.w1
    a1 += params.head.b1
    np.maximum(a1, 0.0, out=a1)
    keep_fc = _dropout_keep(rng, a1.shape, rate)
    a1d = _apply_keep(a1, keep_fc, rate)
    logit = (a1d @ params.head.w2 + params.head.b2).reshape(-1)
    p = sigmoid(logit)
    if not np.all(np.isfinite(p)):
        raise ModelError("non-finite prediction")
    _stash(cache, pooled=pooled, a1=a1, a1d=a1d, keep_fc=keep_fc)
    cache = {} if cache is None else cache
    cache.update(logit=logit, p=p, mode=mode)
    return p, cache


def bce_from_logits(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean BCE computed from pre-sigmoid logits; exact for saturated outputs."""
    l = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float((np.maximum(l, 0.0) - l * y + np.log1p(np.exp(-np.abs(l)))).mean())


# --- backward -----------------------------------------------------------------


def _gru_layer_backward(d_hs, seq, hs, steps, layer, grads, prefix: str):
    """Weight gradients of one GRU layer into ``grads``, from its input
    ``seq``, its output ``hs`` and its gates ``steps``. Pops ``steps`` empty
    and returns the pre-activation deltas (da_z, da_r, da_h), from which a
    caller that needs the input gradient takes it."""
    b, t_len, dm = d_hs.shape
    # pre-activation deltas are collected per step, then every weight gradient
    # (and the caller's input gradient) reduces to one GEMM over batch*time
    da_z = np.empty((b, t_len, dm), dtype=d_hs.dtype)
    da_r = np.empty((b, t_len, dm), dtype=d_hs.dtype)
    da_h = np.empty((b, t_len, dm), dtype=d_hs.dtype)
    rhs = []  # each step's r * h_{t-1}: r is a view that would keep the step's z alive
    dh_next = np.zeros((b, dm), dtype=d_hs.dtype)
    for t in reversed(range(t_len)):
        z, r, g = steps.pop()
        h_prev = hs[:, t - 1, :] if t else np.zeros_like(dh_next)
        rhs.append(r * h_prev)
        dh = d_hs[:, t, :] + dh_next
        ah = dh * z * (1.0 - g * g)
        drh = ah @ layer.u_h.T
        ar = (drh * h_prev) * r * (1.0 - r)
        az = (dh * (g - h_prev)) * z * (1.0 - z)
        if t:  # h_{-1} is the zero state, whose gradient nothing reads
            dh_next = (dh * (1.0 - z) + drh * r
                       + ar @ layer.u_r.T + az @ layer.u_z.T)
        da_z[:, t, :] = az
        da_r[:, t, :] = ar
        da_h[:, t, :] = ah
    del z, r, g, dh, ah, drh, ar, az, dh_next  # the last step's, before the grads
    # the GEMM operands r * h_{t-1} and h_{t-1} of every step, built once the
    # other gates are freed
    rhs = np.stack(rhs[::-1], axis=1)
    h_prevs = np.zeros((b, t_len, dm), dtype=d_hs.dtype)
    h_prevs[:, 1:] = hs[:, :-1]
    grads[prefix + ".u_z"] = _outer_grad(h_prevs, da_z)
    grads[prefix + ".u_r"] = _outer_grad(h_prevs, da_r)
    del h_prevs
    grads[prefix + ".u_h"] = _outer_grad(rhs, da_h)
    del rhs
    grads[prefix + ".w_z"] = _outer_grad(seq, da_z)
    grads[prefix + ".w_r"] = _outer_grad(seq, da_r)
    grads[prefix + ".w_h"] = _outer_grad(seq, da_h)
    grads[prefix + ".b_z"] = da_z.sum(axis=(0, 1))
    grads[prefix + ".b_r"] = da_r.sum(axis=(0, 1))
    grads[prefix + ".b_h"] = da_h.sum(axis=(0, 1))
    return da_z, da_r, da_h


def _mha_backward(d_out, cache, attn, grads):
    """Input gradient of ``_mha_forward``; pops its entries from ``cache``."""
    b, t_len, dm = d_out.shape
    nh = attn.n_heads
    dk = dm // nh
    scale = 1.0 / math.sqrt(dk)

    grads["attn.w_o"] = _outer_grad(cache.pop("o"), d_out)
    d_o = _flat_gemm(d_out, attn.w_o.T)
    del d_out
    d_oh = d_o.reshape(b, t_len, nh, dk).transpose(0, 2, 1, 3)
    a = cache.pop("a")
    d_a = d_oh @ cache.pop("vh").transpose(0, 1, 3, 2)
    d_vh = a.transpose(0, 1, 3, 2) @ d_oh
    del d_o, d_oh
    d_scores = a * (d_a - (d_a * a).sum(axis=-1, keepdims=True))
    del a, d_a

    # one projection at a time, q, k then v: its rows, its weight gradient and
    # its term of the input gradient, which is summed in that order
    h_seq = cache.pop("h")
    d_q = (d_scores @ cache.pop("kh")) * scale
    d_q = np.ascontiguousarray(d_q.transpose(0, 2, 1, 3)).reshape(b, t_len, dm)
    grads["attn.w_q"] = _outer_grad(h_seq, d_q)
    d_in = _flat_gemm(d_q, attn.w_q.T)
    del d_q
    d_k = (d_scores.transpose(0, 1, 3, 2) @ cache.pop("qh")) * scale
    del d_scores
    d_k = np.ascontiguousarray(d_k.transpose(0, 2, 1, 3)).reshape(b, t_len, dm)
    grads["attn.w_k"] = _outer_grad(h_seq, d_k)
    d_in += _flat_gemm(d_k, attn.w_k.T)
    del d_k
    d_v = np.ascontiguousarray(d_vh.transpose(0, 2, 1, 3)).reshape(b, t_len, dm)
    del d_vh
    grads["attn.w_v"] = _outer_grad(h_seq, d_v)
    d_in += _flat_gemm(d_v, attn.w_v.T)
    return d_in


def backward_batch(cache: dict, y: np.ndarray, params: ModelParams
                   ) -> dict[str, np.ndarray]:
    """Exact gradients of the mean BCE loss, one array per parameter tensor in
    ``named_tensors()`` order.

    Consumes the train-mode ``cache``: every cached activation and dropout
    mask is popped at its last read, and every temporary dropped after its
    last read, so a step's memory falls as the pass goes rather than holding
    the whole cache to the end (a bench-size float32 step at B=64 peaks in
    the feed-forward backward, at 7.3 MB of traced allocation).
    Afterwards the cache holds only ``logit``, ``p`` and ``mode``; read
    anything else from it before calling.
    """
    if cache["mode"] != "train":
        raise ModelError("backward needs a train-mode forward cache")
    # keys in layout order: the global norm in clip_gradients sums over them
    grads = dict.fromkeys(name for name, *_ in _layout(params.config)[0])
    p = cache["p"]
    b = p.shape[0]
    y = np.asarray(y, dtype=p.dtype).reshape(b)
    rate = params.config.dropout

    d_logit = (p - y) / b                                  # BCE through sigmoid
    head = params.head
    grads["head.w2"] = cache.pop("a1d").T @ d_logit[:, None]
    grads["head.b2"] = d_logit.sum(keepdims=True)
    d_a1 = _apply_keep(d_logit[:, None] @ head.w2.T, cache.pop("keep_fc"), rate)
    d_u1 = d_a1 * (cache.pop("a1") > 0)  # a1 = max(u1, 0) is positive where u1 is
    grads["head.w1"] = cache.pop("pooled").T @ d_u1
    grads["head.b1"] = d_u1.sum(axis=0)
    d_pooled = d_u1 @ head.w1.T

    d_enc = np.zeros(cache["h"].shape, p.dtype)  # the encoder keeps its input's shape
    d_enc += d_pooled[:, None, :] / d_enc.shape[1]

    attn = params.attn
    # r2 = n1 + f_out: d_r2 is the first term of d_n1, summed into in place
    d_n1, grads["attn.ln2_gain"], grads["attn.ln2_bias"] = _layer_norm_backward(
        d_enc, cache.pop("xhat2"), cache.pop("istd2"), attn.ln2_gain)
    del d_enc
    d_f_out = _apply_keep(d_n1, cache.pop("keep_ffn"), rate)
    fr = cache.pop("fr")
    grads["attn.w_ff2"] = _outer_grad(fr, d_f_out)
    grads["attn.b_ff2"] = d_f_out.sum(axis=(0, 1))
    relu = fr > 0  # fr = max(u, 0) is positive exactly where u is
    del fr
    d_u = _flat_gemm(d_f_out, attn.w_ff2.T)
    del d_f_out
    d_u *= relu
    del relu
    xhat1 = cache.pop("xhat1")
    n1 = attn.ln1_gain * xhat1  # as _layer_norm built it
    n1 += attn.ln1_bias
    grads["attn.w_ff1"] = _outer_grad(n1, d_u)
    del n1
    grads["attn.b_ff1"] = d_u.sum(axis=(0, 1))
    d_n1 += _flat_gemm(d_u, attn.w_ff1.T)
    del d_u

    # and r1 = h2 + attn_out: d_r1 is the first term of d_h2
    d_h2, grads["attn.ln1_gain"], grads["attn.ln1_bias"] = _layer_norm_backward(
        d_n1, xhat1, cache.pop("istd1"), attn.ln1_gain)
    del d_n1, xhat1
    d_h2 += _mha_backward(_apply_keep(d_h2, cache.pop("keep_attn"), rate), cache, attn,
                          grads)

    (x, h1, steps0), keep_gru, (h1d, h2, steps1) = cache.pop("gru")
    gru1 = params.gru[1]
    da_z, da_r, da_h = _gru_layer_backward(d_h2, h1d, h2, steps1, gru1, grads, "gru1")
    del d_h2, h1d, h2
    d_h1 = _apply_keep(_flat_gemm(da_z, gru1.w_z.T) + _flat_gemm(da_r, gru1.w_r.T)
                       + _flat_gemm(da_h, gru1.w_h.T), keep_gru, rate)
    del da_z, da_r, da_h, keep_gru
    # layer 0's input is the data, so its input gradient is never formed
    _gru_layer_backward(d_h1, x, h1, steps0, params.gru[0], grads, "gru0")
    return grads


# --- serialization ------------------------------------------------------------


_HEADER_LIMIT = 1 << 16  # bytes: the longest header line load_params reads
_BLOCK = 1 << 16  # elements per block of the finiteness check


def params_to_json_bytes(params: ModelParams) -> bytes:
    """The version-4 weight file: one line of JSON with sorted keys, then the
    flat buffer's little-endian bytes."""
    flat = params.flat
    header = {"version": WEIGHT_FILE_VERSION, "layout_hash": LAYOUT_HASH,
              "config": {**asdict(params.config), "dtype": flat.dtype.name}}
    return ((json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode()
            + flat.astype(flat.dtype.newbyteorder("<"), copy=False).tobytes())


def save_params(params: ModelParams, path: str | Path) -> None:
    Path(path).write_bytes(params_to_json_bytes(params))


def load_params(path: str | Path) -> ModelParams:
    """Read a version-4 weight file; anything malformed raises ModelError.

    The header line is decoded as every JSON input is (jsonio), and the
    payload straight into a parameter buffer sized from the header."""
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_LIMIT)
        if not line.endswith(b"\n"):
            raise ModelError(f"weight file has no header line in its first "
                             f"{_HEADER_LIMIT} bytes")
        header = decode_object(line, "weight file header", ModelError)
        version = header.get("version")
        if version != WEIGHT_FILE_VERSION:
            raise ModelError(f"unsupported weight file version {version!r}; "
                             f"only version {WEIGHT_FILE_VERSION} is read")
        refuse_unknown_keys(header, ("config", "layout_hash", "version"),
                            "weight file header", ModelError)
        try:
            cfg = header["config"]
            refuse_unknown_keys(cfg, [*(f.name for f in fields(ModelConfig)), "dtype"],
                                "weight file config", ModelError)
            config = ModelConfig(**{f.name: cfg[f.name] for f in fields(ModelConfig)})
            dtype_name, layout_hash = cfg["dtype"], header["layout_hash"]
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed weight file: {exc!r}") from exc
        if layout_hash != LAYOUT_HASH:
            raise LayoutMismatchError(
                f"weights built for layout {layout_hash}, code has {LAYOUT_HASH}")
        if dtype_name not in WEIGHT_DTYPES:
            raise ModelError(f"weight file dtype {dtype_name!r} is not one of {WEIGHT_DTYPES}")
        dtype = np.dtype(dtype_name)
        size = _layout(config)[1]
        # measured before a buffer of the header's size is allocated
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held != size * dtype.itemsize:
            raise ModelError(f"weight buffer holds {held} bytes after the header, "
                             f"the layout needs {size * dtype.itemsize}")
        # the file's bytes are little-endian: read in place on such hosts,
        # swapped into a copy elsewhere
        flat = np.empty(size, dtype.newbyteorder("<"))
        if fh.readinto(flat) != flat.nbytes:
            raise ModelError("weight file shrank while it was read")
    flat = flat.astype(dtype, copy=False)
    # in blocks, so the check allocates no array the size of the buffer
    if not all(np.isfinite(flat[i:i + _BLOCK]).all() for i in range(0, flat.size, _BLOCK)):
        raise ModelError("weight buffer holds a non-finite value")
    return ModelParams(config, flat)
