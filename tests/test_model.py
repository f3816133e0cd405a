import base64
import functools
import hashlib
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crosswise.features import FEATURE_DIM
from crosswise.model import (LayoutMismatchError, ModelConfig, ModelError, Prediction,
                             _gru_layer_forward, _mha_forward,
                             backward_batch, bce_from_logits, forward_batch,
                             init_params, load_params, save_params, sigmoid, softmax_last)
from crosswise.model import (WEIGHT_DTYPES, WEIGHT_FILE_VERSION, ModelParams,
                             params_to_json_bytes)


def random_gru_layer(rng, d_in, d_h):
    return SimpleNamespace(
        w_z=rng.standard_normal((d_in, d_h)), w_r=rng.standard_normal((d_in, d_h)),
        w_h=rng.standard_normal((d_in, d_h)), u_z=rng.standard_normal((d_h, d_h)),
        u_r=rng.standard_normal((d_h, d_h)), u_h=rng.standard_normal((d_h, d_h)),
        b_z=rng.standard_normal(d_h), b_r=rng.standard_normal(d_h),
        b_h=rng.standard_normal(d_h))


def gru_cell_reference(x, h_prev, layer):
    """Straight-line scalar transcription of the gate equations."""
    d_in, d_h = layer.w_z.shape

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = np.zeros(d_h)
    r = np.zeros(d_h)
    for j in range(d_h):
        z[j] = sig(layer.b_z[j] + sum(x[i] * layer.w_z[i, j] for i in range(d_in))
                   + sum(h_prev[k] * layer.u_z[k, j] for k in range(d_h)))
        r[j] = sig(layer.b_r[j] + sum(x[i] * layer.w_r[i, j] for i in range(d_in))
                   + sum(h_prev[k] * layer.u_r[k, j] for k in range(d_h)))
    h_t = np.zeros(d_h)
    for j in range(d_h):
        gate_input = layer.b_h[j] \
            + sum(x[i] * layer.w_h[i, j] for i in range(d_in)) \
            + sum(r[k] * h_prev[k] * layer.u_h[k, j] for k in range(d_h))
        g = math.tanh(gate_input)
        h_t[j] = (1.0 - z[j]) * h_prev[j] + z[j] * g
    return h_t


def mha_reference(h_seq, attn):
    """Per-head dense transcription: slice weights, loop scores explicitly."""
    t_len, dm = h_seq.shape
    nh = attn.n_heads
    dk = dm // nh
    heads = []
    for i in range(nh):
        wq = attn.w_q[:, i * dk:(i + 1) * dk]
        wk = attn.w_k[:, i * dk:(i + 1) * dk]
        wv = attn.w_v[:, i * dk:(i + 1) * dk]
        q = h_seq @ wq
        k = h_seq @ wk
        v = h_seq @ wv
        out = np.zeros((t_len, dk))
        for t in range(t_len):
            scores = np.array([q[t] @ k[s] / math.sqrt(dk) for s in range(t_len)])
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            out[t] = sum(w[s] * v[s] for s in range(t_len))
        heads.append(out)
    return np.concatenate(heads, axis=1) @ attn.w_o


def random_attention(rng, dm, nh, d_ff=8):
    return SimpleNamespace(
        w_q=rng.standard_normal((dm, dm)), w_k=rng.standard_normal((dm, dm)),
        w_v=rng.standard_normal((dm, dm)), w_o=rng.standard_normal((dm, dm)),
        w_ff1=rng.standard_normal((dm, d_ff)), b_ff1=rng.standard_normal(d_ff),
        w_ff2=rng.standard_normal((d_ff, dm)), b_ff2=rng.standard_normal(dm),
        ln1_gain=np.ones(dm), ln1_bias=np.zeros(dm),
        ln2_gain=np.ones(dm), ln2_bias=np.zeros(dm), n_heads=nh)


def gru_sequence_reference(x_seq, layer):
    """gru_cell_reference chained over a (T, d_in) sequence from a zero state."""
    h = np.zeros(layer.u_z.shape[0])
    out = []
    for x in x_seq:
        h = gru_cell_reference(x, h, layer)
        out.append(h)
    return np.array(out)


# the GRU layer body as training calls it (keeping each step's gates) and as
# inference does, each mapping (B, T, d_in) to the hidden states (B, T, d_h)
# from a zero state
GRU_BODIES = {"train": lambda seq, layer: _gru_layer_forward(seq, layer, []),
              "infer": _gru_layer_forward}


def gru_oracle_error(seed):
    """Largest deviation of the GRU layer body, as each mode calls it, from
    the transcription, over T in [2, 5] steps from a zero state, for one
    random layer."""
    rng = np.random.default_rng(seed)
    d_in = int(rng.integers(2, 8))
    d_h = int(rng.integers(2, 10))
    t_len = int(rng.integers(2, 6))
    layer = random_gru_layer(rng, d_in, d_h)
    seq = rng.standard_normal((2, t_len, d_in))
    want = np.stack([gru_sequence_reference(row, layer) for row in seq])
    return {name: float(np.max(np.abs(body(seq, layer) - want)))
            for name, body in GRU_BODIES.items()}


def mha_oracle_error(seed):
    """Largest deviation of _mha_forward from the dense transcription, for
    one random attention block over two sequences of 5 steps."""
    rng = np.random.default_rng(seed)
    nh = int(rng.choice([1, 2, 4]))
    dk = int(rng.integers(2, 5))
    attn = random_attention(rng, nh * dk, nh)
    h = rng.standard_normal((2, 5, nh * dk))
    out, _ = _mha_forward(h, attn)
    return max(float(np.max(np.abs(out[i] - mha_reference(h[i], attn))))
               for i in range(len(h)))


def mha_weights(h_seq, attn):
    """Output and softmax weights (n_heads, T, T) of _mha_forward for one sequence."""
    out, cache = _mha_forward(h_seq[None], attn)
    return out[0], cache["a"][0]


class TestGruCell:
    """The gate equations, checked on the GRU layer body as each mode calls it."""

    def test_zero_params_halve_hidden_state(self):
        # z = 0.5 and g = tanh(b_h), so each step halves h - tanh(b_h):
        # h_t = (1 - 2^-t) tanh(b_h) from h_0 = 0
        layer = SimpleNamespace(w_z=np.zeros((4, 6)), w_r=np.zeros((4, 6)),
                                w_h=np.zeros((4, 6)), u_z=np.zeros((6, 6)),
                                u_r=np.zeros((6, 6)), u_h=np.zeros((6, 6)),
                                b_z=np.zeros(6), b_r=np.zeros(6),
                                b_h=np.linspace(-2.0, 2.0, 6))
        want = np.array([(1.0 - 0.5 ** t) * np.tanh(layer.b_h) for t in range(1, 6)])
        for name, body in GRU_BODIES.items():
            h = body(np.ones((3, 5, 4)), layer)
            np.testing.assert_allclose(h, np.broadcast_to(want, h.shape),
                                       rtol=0, atol=1e-15, err_msg=name)

    def test_zero_everything(self):
        # zero input and zero biases keep the state at zero, whatever W and U
        rng = np.random.default_rng(0)
        layer = random_gru_layer(rng, 4, 6)
        layer.b_z, layer.b_r, layer.b_h = np.zeros(6), np.zeros(6), np.zeros(6)
        for name, body in GRU_BODIES.items():
            np.testing.assert_array_equal(body(np.zeros((2, 5, 4)), layer),
                                          np.zeros((2, 5, 6)), err_msg=name)

    def test_matches_equation_transcription_100_seeds(self):
        for seed in range(100):
            for name, err in gru_oracle_error(seed).items():
                assert err <= 1e-12, (seed, name, err)

    def test_shape_mismatch(self):
        params = init_params(ModelConfig(d_h=6, n_heads=2, d_ff=4), seed=0)
        with pytest.raises(ModelError, match="input"):
            forward_batch(np.zeros((1, 5, FEATURE_DIM - 1)), params)


def gru_stack(body, x, params):
    return body(body(x, params.gru[0]), params.gru[1])


class TestGruForward:
    def test_zero_params_zero_states(self):
        cfg = ModelConfig(d_h=8, n_heads=2, d_ff=8, dropout=0.0)
        params = init_params(cfg, seed=0)
        for _, t in params.named_tensors():
            t[...] = 0.0
        for name, body in GRU_BODIES.items():
            np.testing.assert_array_equal(gru_stack(body, np.ones((1, 5, FEATURE_DIM)), params),
                                          np.zeros((1, 5, 8)), err_msg=name)

    def test_t1_equals_cell_composition(self):
        cfg = ModelConfig(d_h=8, n_heads=2, d_ff=8, dropout=0.0)
        params = init_params(cfg, seed=1)
        x = np.random.default_rng(2).standard_normal((1, 1, FEATURE_DIM))
        h1 = gru_cell_reference(x[0, 0], np.zeros(8), params.gru[0])
        h2 = gru_cell_reference(h1, np.zeros(8), params.gru[1])
        for name, body in GRU_BODIES.items():
            np.testing.assert_allclose(gru_stack(body, x, params)[0, 0], h2,
                                       rtol=0, atol=1e-12, err_msg=name)

    def test_order_sensitivity(self):
        cfg = ModelConfig(d_h=8, n_heads=2, d_ff=8, dropout=0.0)
        params = init_params(cfg, seed=3)
        x = np.random.default_rng(4).standard_normal((1, 5, FEATURE_DIM))
        for name, body in GRU_BODIES.items():
            h_fwd = gru_stack(body, x, params)
            h_rev = gru_stack(body, x[:, ::-1], params)
            assert not np.allclose(h_fwd[0, -1], h_rev[0, -1]), name


class TestAttention:
    def test_matches_dense_transcription_100_seeds(self):
        for seed in range(100):
            err = mha_oracle_error(1000 + seed)
            assert err <= 1e-10, (seed, err)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        attn = random_attention(rng, 8, 2)
        h = rng.standard_normal((5, 8))
        _, weights = mha_weights(h, attn)
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones((2, 5)), atol=1e-9)

    def test_t1_output_is_projected_v_row(self):
        rng = np.random.default_rng(12)
        attn = random_attention(rng, 8, 2)
        h = rng.standard_normal((1, 8))
        out, weights = mha_weights(h, attn)
        np.testing.assert_allclose(weights, np.ones((2, 1, 1)))
        np.testing.assert_allclose(out, (h @ attn.w_v) @ attn.w_o, atol=1e-12)

    def test_convex_combination_of_value_rows(self):
        rng = np.random.default_rng(13)
        attn = random_attention(rng, 6, 2)
        h = rng.standard_normal((4, 6))
        _, weights = mha_weights(h, attn)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(-1), 1.0, atol=1e-9)

    def test_score_shift_invariance(self):
        rng = np.random.default_rng(14)
        s = rng.standard_normal((3, 5))
        np.testing.assert_allclose(softmax_last(s), softmax_last(s + 7.5), atol=1e-12)

    def test_single_head_full_width_equivalence(self):
        rng = np.random.default_rng(15)
        attn = random_attention(rng, 8, 1)
        h = rng.standard_normal((5, 8))
        out, _ = mha_weights(h, attn)
        scores = (h @ attn.w_q) @ (h @ attn.w_k).T / math.sqrt(8)
        expected = softmax_last(scores) @ (h @ attn.w_v) @ attn.w_o
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_bad_head_count_rejected(self):
        with pytest.raises(ModelError):
            ModelConfig(d_h=256, n_heads=3)

    def test_encoder_deterministic_in_infer_mode(self):
        # infer mode draws no dropout mask, whatever the configured rate
        cfg = ModelConfig(d_h=8, n_heads=2, d_ff=8, dropout=0.5)
        params = init_params(cfg, seed=16)
        x = np.random.default_rng(16).standard_normal((3, 5, FEATURE_DIM))
        a, _ = forward_batch(x, params)
        b, _ = forward_batch(x, params)
        assert a.tobytes() == b.tobytes()


class TestForward:
    def small_params(self, dropout=0.0, seed=0):
        cfg = ModelConfig(d_h=16, n_heads=2, d_ff=12, dropout=dropout)
        return init_params(cfg, seed=seed)

    def test_zero_params_give_half(self):
        params = self.small_params()
        for _, t in params.named_tensors():
            t[...] = 0.0
        params.attn.ln1_gain[...] = 1.0
        params.attn.ln2_gain[...] = 1.0
        p, _ = forward_batch(np.ones((3, 5, FEATURE_DIM)), params)
        np.testing.assert_allclose(p, 0.5)

    def test_probability_strictly_inside_unit_interval(self):
        params = self.small_params(seed=5)
        rng = np.random.default_rng(6)
        p, _ = forward_batch(rng.standard_normal((50, 5, FEATURE_DIM)) * 10, params)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_head_scaling_monotone(self):
        params = self.small_params(seed=7)
        x = np.random.default_rng(8).standard_normal((1, 5, FEATURE_DIM))
        base_logit = None
        margins = []
        for factor in (1.0, 10.0, 100.0):
            scaled = params.copy()
            scaled.head.w2 *= factor
            scaled.head.b2 *= factor
            p, cache = forward_batch(x, scaled)
            if base_logit is None:
                base_logit = cache["logit"][0]
            margins.append(abs(p[0] - 0.5))
        assert base_logit != 0.0
        assert margins[0] < margins[1] < margins[2]

    def test_layout_hash_mismatch_rejected(self, tmp_path):
        # refused where the weights are loaded, so a stale weight file never
        # reaches a forward
        params = self.small_params()
        path = tmp_path / "w.bin"
        save_params(params, path)
        header, payload = read_weight_file(path)
        header["layout_hash"] = "0000000000000000"
        write_weight_file(path, header, payload)
        with pytest.raises(LayoutMismatchError, match="0000000000000000"):
            load_params(path)

    def test_train_mode_needs_rng(self):
        params = self.small_params(dropout=0.5)
        with pytest.raises(ModelError):
            forward_batch(np.zeros((1, 5, FEATURE_DIM)), params, mode="train")

    def test_train_mode_deterministic_given_seed(self):
        params = self.small_params(dropout=0.5, seed=10)
        x = np.random.default_rng(11).standard_normal((4, 5, FEATURE_DIM))
        p1, _ = forward_batch(x, params, mode="train", rng=np.random.default_rng(1))
        p2, _ = forward_batch(x, params, mode="train", rng=np.random.default_rng(1))
        np.testing.assert_array_equal(p1, p2)


def where_sigmoid(x):
    """The np.where form of the logistic function that ``sigmoid`` replaced."""
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def assert_same_bytes(a, b):
    """Byte-equal arrays, except that any NaN matches any NaN (the two forms
    may give NaNs of different sign)."""
    assert a.dtype == b.dtype and a.shape == b.shape
    nan = np.isnan(b)
    np.testing.assert_array_equal(np.isnan(a), nan)
    assert a[~nan].tobytes() == b[~nan].tobytes()


def float_arrays(dtype):
    width = np.dtype(dtype).itemsize * 8
    return arrays(dtype, st.integers(0, 64),
                  elements=st.floats(allow_nan=True, allow_infinity=True, width=width))


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, dtype):
        info = np.finfo(dtype)
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                      info.smallest_subnormal, -info.smallest_subnormal,
                      info.tiny, -info.tiny, info.max, -info.max,
                      88.7, -88.7, 103.9, -103.9, 709.8, -709.8, 745.2, -745.2], dtype)
        assert_same_bytes(sigmoid(x), where_sigmoid(x))

    @given(st.one_of(float_arrays(np.float32), float_arrays(np.float64)))
    def test_matches_where_form(self, x):
        assert_same_bytes(sigmoid(x), where_sigmoid(x))


@functools.lru_cache(maxsize=None)
def bench_size_params(dtype: str, n_heads: int) -> ModelParams:
    """Bench-size weights with non-zero biases and non-unit layer-norm gains,
    so every bias add and gain product changes bytes."""
    cfg = ModelConfig(n_heads=n_heads, dropout=0.0)
    params = init_params(cfg, seed=n_heads, dtype=np.dtype(dtype))
    rng = np.random.default_rng(n_heads)
    for _, t in params.named_tensors():
        if t.ndim == 1:
            t += rng.standard_normal(t.shape) * 0.5
    return params


class TestInferBody:
    """Infer mode runs the train-mode body without a cache or dropout masks:
    the same bytes as train mode at dropout 0, and none of its caches."""

    @staticmethod
    def p_and_logit(x, params, mode):
        # only the two outputs leave this frame, so a failing example does
        # not keep a whole forward cache alive while hypothesis shrinks it
        p, cache = forward_batch(x, params, mode=mode, rng=np.random.default_rng(0))
        return p, cache["logit"]

    @settings(max_examples=60)
    @given(st.integers(1, 300), st.sampled_from(["float32", "float64"]),
           st.sampled_from([1, 2, 4]), st.sampled_from([1e-3, 1.0, 30.0, 1e4, 1e6]),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_train_body(self, b, dtype, n_heads, scale, seed):
        params = bench_size_params(dtype, n_heads)
        x = np.random.default_rng(seed).standard_normal((b, 5, FEATURE_DIM)) * scale
        p, logit = self.p_and_logit(x, params, "infer")
        p_train, logit_train = self.p_and_logit(x, params, "train")
        assert p.tobytes() == p_train.tobytes()
        assert logit.tobytes() == logit_train.tobytes()

    def test_generator_untouched(self):
        # only train mode draws masks: given a Generator at dropout 0.5, an
        # infer forward scores as one without and leaves the Generator as it was
        cfg = ModelConfig(d_h=16, n_heads=2, d_ff=12, dropout=0.5)
        params = init_params(cfg, seed=17)
        x = np.random.default_rng(17).standard_normal((3, 5, FEATURE_DIM))
        rng = np.random.default_rng(18)
        state = rng.bit_generator.state
        p, cache = forward_batch(x, params, rng=rng)
        p_free, cache_free = forward_batch(x, params)
        assert p.tobytes() == p_free.tobytes()
        assert cache["logit"].tobytes() == cache_free["logit"].tobytes()
        assert rng.bit_generator.state == state

    def test_cache_holds_only_the_outputs(self):
        p, cache = forward_batch(np.ones((2, 5, FEATURE_DIM)),
                                 bench_size_params("float64", 2))
        assert set(cache) == {"logit", "p", "mode"}
        assert cache["p"] is p and cache["mode"] == "infer"

    def test_b256_float32_peak_allocation(self):
        # 39.4e6 bytes when inference kept the train-mode caches, 9.7e6 without
        params = bench_size_params("float32", 2)
        x = np.random.default_rng(3).standard_normal((256, 5, FEATURE_DIM)).astype(np.float32)
        tracemalloc.start()
        try:
            forward_batch(x, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestPrediction:
    def test_label_threshold(self):
        assert Prediction(1, 0.49, 0).label == "A"
        assert Prediction(1, 0.5, 0).label == "B"

    def test_range_validated(self):
        with pytest.raises(ModelError):
            Prediction(1, 1.2, 0)


class TestBackward:
    def test_bce_gradient_zero_at_exact_prediction(self):
        # dL/dlogit = p - y: zero whenever p equals the target
        p = np.array([0.25, 0.75])
        y = p.copy()
        np.testing.assert_allclose(p - y, 0.0)

    def test_unused_input_weights_get_zero_gradient(self):
        cfg = ModelConfig(d_h=16, n_heads=2, d_ff=12, dropout=0.0)
        params = init_params(cfg, seed=12)
        x = np.zeros((2, 5, FEATURE_DIM))
        _, cache = forward_batch(x, params, mode="train",
                                 rng=np.random.default_rng(0))
        grads = backward_batch(cache, np.array([1.0, 1.0]), params)
        for name in ("gru0.w_z", "gru0.w_r", "gru0.w_h"):
            np.testing.assert_array_equal(grads[name], 0.0)
        assert abs(grads["head.b2"]).sum() > 0

    def test_backward_requires_train_cache(self):
        cfg = ModelConfig(d_h=16, n_heads=2, d_ff=12, dropout=0.0)
        params = init_params(cfg, seed=13)
        _, cache = forward_batch(np.zeros((1, 5, FEATURE_DIM)), params)
        with pytest.raises(ModelError):
            backward_batch(cache, np.array([1.0]), params)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.5, 0.0])
    def test_one_gradient_per_tensor(self, dtype, dropout):
        cfg = ModelConfig(d_h=16, n_heads=2, d_ff=12, dropout=dropout)
        params = init_params(cfg, seed=24, dtype=dtype)
        x = np.random.default_rng(25).standard_normal((3, 5, FEATURE_DIM))
        _, cache = forward_batch(x, params, mode="train", rng=np.random.default_rng(26))
        grads = backward_batch(cache, np.array([1.0, 0.0, 1.0]), params)
        # in layout order, which the global norm of clip_gradients sums in
        assert list(grads) == [name for name, _ in params.named_tensors()]
        for name, tensor in params.named_tensors():
            assert type(grads[name]) is np.ndarray, name
            assert (grads[name].shape, grads[name].dtype) == (tensor.shape, tensor.dtype), name
        assert set(cache) == {"logit", "p", "mode"}  # the rest was consumed

    def test_b64_float32_train_step_peak_allocation(self):
        # 20.6e6 bytes while backward_batch held the whole train cache and a
        # zero-filled gradient dict to its end, and 10.9e6, the forward's own
        # peak, once it consumed the cache. A forward that keeps only what
        # backward reads (boolean dropout masks, no per-step h or r * h, no
        # u, n1 or encoder output) peaks at 6.8e6, and the step at 7.3e6 in
        # the feed-forward backward
        params = init_params(ModelConfig(), seed=27, dtype=np.float32)
        rng = np.random.default_rng(28)
        x = rng.standard_normal((64, 5, FEATURE_DIM)).astype(np.float32)
        y = (rng.random(64) < 0.5).astype(np.float32)
        tracemalloc.start()
        try:
            _, cache = forward_batch(x, params, mode="train", rng=rng)
            backward_batch(cache, y, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5e6

    def test_finite_differences_small_model(self):
        cfg = ModelConfig(d_h=8, n_heads=2, d_ff=10, dropout=0.5)
        params = init_params(cfg, seed=14)
        x = np.random.default_rng(15).standard_normal((2, 5, FEATURE_DIM))
        y = np.array([1.0, 0.0])

        def loss():
            p, cache = forward_batch(x, params, mode="train",
                                     rng=np.random.default_rng(77))
            return bce_from_logits(cache["logit"], y), cache

        _, cache = loss()
        grads = backward_batch(cache, y, params)
        eps = 1e-5
        rng = np.random.default_rng(16)
        for name, tensor in params.named_tensors():
            flat = tensor.reshape(-1)
            for _ in range(3):
                i = int(rng.integers(flat.size))
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = loss()
                flat[i] = orig - eps
                lm, _ = loss()
                flat[i] = orig
                numeric = (lp - lm) / (2 * eps)
                analytic = grads[name].reshape(-1)[i]
                assert abs(numeric - analytic) <= 1e-4 * max(
                    abs(numeric), abs(analytic), 1e-6), name


class TestLoss:
    def test_bce_matches_logit_form(self):
        rng = np.random.default_rng(17)
        logits = rng.standard_normal(20) * 3
        y = (rng.random(20) > 0.5).astype(float)
        p = 1.0 / (1.0 + np.exp(-logits))
        bce = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean()
        assert bce_from_logits(logits, y) == pytest.approx(bce, rel=1e-9)

    def test_saturated_logits_finite(self):
        assert np.isfinite(bce_from_logits(np.array([500.0, -500.0]),
                                           np.array([0.0, 1.0])))


class TestSerialization:
    def test_round_trip_byte_identical_float64(self, tmp_path):
        cfg = ModelConfig(d_h=16, n_heads=2, d_ff=12)
        params = init_params(cfg, seed=18)
        p1 = tmp_path / "w1.json"
        save_params(params, p1)
        loaded = load_params(p1)
        p2 = tmp_path / "w2.json"
        save_params(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_exact_float32(self, tmp_path):
        cfg = ModelConfig(d_h=16, n_heads=2, d_ff=12)
        params = init_params(cfg, seed=19).astype(np.float32)
        path = tmp_path / "w32.json"
        save_params(params, path)
        loaded = load_params(path)
        for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
            assert b.dtype == np.float32, name
            np.testing.assert_array_equal(a, b)

    def test_config_round_trips(self, tmp_path):
        cfg = ModelConfig(d_h=32, n_heads=4, d_ff=24, dropout=0.25)
        params = init_params(cfg, seed=20)
        path = tmp_path / "w.json"
        save_params(params, path)
        assert load_params(path).config == cfg

    def test_loaded_params_produce_identical_outputs(self, tmp_path):
        cfg = ModelConfig(d_h=16, n_heads=2, d_ff=12)
        params = init_params(cfg, seed=21)
        path = tmp_path / "w.json"
        save_params(params, path)
        loaded = load_params(path)
        x = np.random.default_rng(22).standard_normal((3, 5, FEATURE_DIM))
        np.testing.assert_array_equal(forward_batch(x, params)[0],
                                      forward_batch(x, loaded)[0])

    def test_param_count_independent_of_heads(self):
        base = None
        for nh in (1, 2, 4):
            cfg = ModelConfig(d_h=256, n_heads=nh)
            n = init_params(cfg, seed=0).n_params()
            base = base or n
            assert n == base

    @pytest.mark.parametrize("dtype", WEIGHT_DTYPES)
    @pytest.mark.parametrize("window", ["mean", "last"])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_flat_and_config_round_trip(self, tmp_path, dtype, window, n_heads):
        cfg = ModelConfig(d_h=8, n_heads=n_heads, d_ff=6, dropout=0.25)
        params = init_params(cfg, seed=n_heads, dtype=np.dtype(dtype))
        path = tmp_path / "w.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.config == cfg
        assert loaded.flat.dtype == params.flat.dtype
        assert loaded.flat.tobytes() == params.flat.tobytes()
        # "mean" pools the encoder over a whole window; "last" feeds its last
        # step alone, where the mean over one step is that step
        x = np.random.default_rng(n_heads).standard_normal((2, 5, FEATURE_DIM))
        x = x if window == "mean" else x[:, -1:]
        np.testing.assert_array_equal(forward_batch(x, params)[0],
                                      forward_batch(x, loaded)[0])

    @staticmethod
    def saved_file(tmp_path, dtype=np.float64):
        """(params, path, header, payload) of a small model saved to a file."""
        cfg = ModelConfig(d_h=16, n_heads=2, d_ff=12)
        params = init_params(cfg, seed=23).astype(dtype)
        path = tmp_path / "w.bin"
        save_params(params, path)
        return (params, path, *read_weight_file(path))

    def test_version_1_file_refused(self, tmp_path):
        params, path, header, _ = self.saved_file(tmp_path)
        header["version"] = 1
        header["tensors"] = {name: {"shape": list(t.shape)} for name, t in params.named_tensors()}
        write_weight_file(path, header, b"")
        with pytest.raises(ModelError, match="version 1"):
            load_params(path)

    def test_version_2_file_refused(self, tmp_path):
        # the whole-JSON document with a base64 payload that version 3 replaced;
        # this small one fits in the header line limit
        _, path, header, payload = self.saved_file(tmp_path)
        header.update(version=2, flat=base64.b64encode(payload).decode("ascii"))
        path.write_text(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        with pytest.raises(ModelError, match="version 2"):
            load_params(path)

    def test_version_3_file_refused(self, tmp_path):
        # version 3's config also held d_in and pooling
        _, path, header, payload = self.saved_file(tmp_path)
        header["version"] = 3
        header["config"].update(d_in=FEATURE_DIM, pooling="mean")
        write_weight_file(path, header, payload)
        with pytest.raises(ModelError, match="version 3"):
            load_params(path)

    def test_d_in_in_config_refused(self, tmp_path):
        # the buffer of a model over 4 input slots: the layout hash pins the
        # 16-slot features, not the config, so a version-3 reader loaded this
        # file and the first window of a stream then failed
        params, path, header, payload = self.saved_file(tmp_path)
        header["config"]["d_in"] = 4
        narrow = 3 * (FEATURE_DIM - 4) * params.config.d_h * params.flat.itemsize
        write_weight_file(path, header, payload[narrow:])
        with pytest.raises(ModelError, match="unknown weight file config .*'d_in'"):
            load_params(path)

    def test_pooling_in_config_refused(self, tmp_path):
        _, path, header, payload = self.saved_file(tmp_path)
        header["config"]["pooling"] = "mean"
        write_weight_file(path, header, payload)
        with pytest.raises(ModelError, match="unknown weight file config .*'pooling'"):
            load_params(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_truncated_buffer_refused(self, tmp_path, dtype):
        _, path, header, payload = self.saved_file(tmp_path, dtype)
        write_weight_file(path, header, payload[:-np.dtype(dtype).itemsize])
        with pytest.raises(ModelError, match="bytes"):
            load_params(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_trailing_byte_refused(self, tmp_path, dtype):
        _, path, header, payload = self.saved_file(tmp_path, dtype)
        write_weight_file(path, header, payload + b"\n")
        with pytest.raises(ModelError, match="bytes"):
            load_params(path)

    def test_huge_layout_refused_before_allocation(self, tmp_path):
        # a header alone sets no buffer size: this one would ask for 114 TB
        _, path, header, payload = self.saved_file(tmp_path)
        header["config"]["d_h"] = 1 << 20
        write_weight_file(path, header, payload)
        with pytest.raises(ModelError, match="bytes"):
            load_params(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_refused(self, tmp_path, dtype, value):
        params, path, header, _ = self.saved_file(tmp_path, dtype)
        flat = params.flat.copy()
        flat[len(flat) // 2] = value
        write_weight_file(path, header, flat.astype(flat.dtype.newbyteorder("<")).tobytes())
        with pytest.raises(ModelError, match="non-finite"):
            load_params(path)

    def test_int8_dtype_refused(self, tmp_path):
        _, path, header, payload = self.saved_file(tmp_path)
        header["config"]["dtype"] = "int8"
        write_weight_file(path, header, payload)
        with pytest.raises(ModelError, match="int8"):
            load_params(path)

    def test_missing_field_refused(self, tmp_path):
        _, path, header, payload = self.saved_file(tmp_path)
        del header["config"]["d_ff"]
        write_weight_file(path, header, payload)
        with pytest.raises(ModelError, match="d_ff"):
            load_params(path)

    @pytest.mark.parametrize("key,value", [("n_heads", 0), ("d_h", -16), ("d_ff", 2.5),
                                           ("n_heads", True)])
    def test_bad_config_refused(self, tmp_path, key, value):
        _, path, header, payload = self.saved_file(tmp_path)
        header["config"][key] = value
        write_weight_file(path, header, payload)
        with pytest.raises(ModelError):
            load_params(path)

    @pytest.mark.parametrize("where", ["header", "config"])
    def test_unknown_header_key_refused(self, tmp_path, where):
        _, path, header, payload = self.saved_file(tmp_path)
        (header if where == "header" else header["config"])["flat"] = ""
        write_weight_file(path, header, payload)
        with pytest.raises(ModelError, match="unknown weight file .*'flat'"):
            load_params(path)

    def test_bool_dropout_in_header_refused(self, tmp_path):
        # false compares as 0.0, inside [0, 1): only the number rule refuses it
        _, path, header, payload = self.saved_file(tmp_path)
        header["config"]["dropout"] = False
        write_weight_file(path, header, payload)
        with pytest.raises(ModelError, match="dropout must be a finite JSON number"):
            load_params(path)

    def test_nan_in_header_refused(self, tmp_path):
        _, path, header, payload = self.saved_file(tmp_path)
        header["config"]["dropout"] = float("nan")
        write_weight_file(path, header, payload)  # json.dumps writes NaN
        with pytest.raises(ModelError, match="NaN is not a JSON number"):
            load_params(path)

    @pytest.mark.parametrize("pad", [0, 1 << 16])
    def test_no_header_line_refused(self, tmp_path, pad):
        # whitespace before the header is valid JSON, but no newline comes
        # within the first 64 KiB; the header alone, unterminated, is refused too
        _, path, header, payload = self.saved_file(tmp_path)
        line = json.dumps(header).encode()
        path.write_bytes(b" " * pad + line + (b"\n" + payload if pad else b""))
        with pytest.raises(ModelError, match="no header line"):
            load_params(path)

    def test_loaded_buffer_is_writable(self, tmp_path):
        _, path, header, _ = self.saved_file(tmp_path, np.float32)
        assert header["version"] == WEIGHT_FILE_VERSION
        loaded = load_params(path)
        assert loaded.flat.flags.writeable
        loaded.head.b2[...] = 3.0
        assert loaded.flat[-1] == 3.0

    def test_golden_file_small_float64(self, tmp_path):
        # no BLAS runs in init_params or in the writer: the same bytes on any host.
        # The payload is test_golden_init_small_float64's buffer
        path = tmp_path / "w.bin"
        save_params(init_params(ModelConfig(d_h=16, n_heads=2, d_ff=12), seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "00fae6dc5ee02eb30002d136ca43a2b5b25ae137ceaec201437d152b69603fd9"

    def test_bench_float32_load_peak_allocation(self, tmp_path):
        # the peak is the buffer (4.58e6), the header line and one block of
        # the finiteness check. A whole-buffer finiteness mask (+1.15e6) or a
        # copy of the payload would break the bound.
        params = init_params(ModelConfig(), seed=31, dtype=np.float32)
        path = tmp_path / "w.bin"
        save_params(params, path)
        tracemalloc.start()
        try:
            loaded = load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5e6
        owner = loaded.flat if loaded.flat.base is None else loaded.flat.base
        assert owner.nbytes <= params.flat.nbytes
        assert params_to_json_bytes(loaded) == path.read_bytes()

    def test_padded_header_leaves_only_the_buffer(self, tmp_path):
        # the header line is not kept: after a load that reads a near-64 KiB
        # header, only the parameter buffer stays allocated
        params = init_params(ModelConfig(d_h=64, n_heads=2, d_ff=32), seed=32)
        path = tmp_path / "w.bin"
        save_params(params, path)
        header, payload = read_weight_file(path)
        path.write_bytes(json.dumps(header).encode() + b" " * 60_000 + b"\n" + payload)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_params(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.flat, params.flat)
        assert params.flat.nbytes <= held <= params.flat.nbytes + 16_384


def read_weight_file(path):
    """(header dict, payload bytes) of a weight file."""
    line, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(line), payload


def write_weight_file(path, header: dict, payload: bytes) -> None:
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def params_digest(params: ModelParams) -> str:
    h = hashlib.sha256()
    for _, t in params.named_tensors():
        h.update(t.tobytes())
    return h.hexdigest()


class TestParameterBuffer:
    def test_golden_init_small_float64(self):
        params = init_params(ModelConfig(d_h=16, n_heads=2, d_ff=12), seed=0)
        assert params.n_params() == 5821
        assert params_digest(params) == \
            "95340014677ac48de567bab1a2b40c06db54a932298c77761d9c97248706c325"

    def test_golden_init_bench_float32(self):
        params = init_params(ModelConfig(), seed=20250509, dtype=np.float32)
        assert params.n_params() == 1146241
        assert params_digest(params) == \
            "9b38c2dda2e664b9092dd853c8c88cf4cdceb12e43b92c739a60f1a0f64e2d82"

    @pytest.mark.parametrize("field", ["d_h", "n_heads", "d_ff"])
    @pytest.mark.parametrize("value", [True, np.True_])
    def test_bool_dimension_refused(self, field, value):
        with pytest.raises(ModelError, match="positive integers"):
            ModelConfig(**{field: value})

    def test_numpy_integer_dimension_refused(self):
        # such a config would build and train, then fail to be saved
        with pytest.raises(ModelError, match="positive integers"):
            ModelConfig(d_h=np.int64(8), n_heads=2, d_ff=4)

    def test_wrong_buffer_size_refused(self):
        cfg = ModelConfig(d_h=4, n_heads=2, d_ff=4)
        n = init_params(cfg).n_params()
        with pytest.raises(ModelError):
            ModelParams(cfg, np.zeros(n + 1))

    @settings(max_examples=40, deadline=None)
    @given(n_heads=st.integers(1, 3), d_k=st.integers(1, 4), d_ff=st.integers(1, 8),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_views_tile_the_buffer(self, n_heads, d_k, d_ff, dtype, seed):
        cfg = ModelConfig(d_h=n_heads * d_k, n_heads=n_heads, d_ff=d_ff)
        params = init_params(cfg, seed=seed, dtype=dtype)
        base = params.flat.__array_interface__["data"][0]
        cursor = 0
        names = []
        for name, t in params.named_tensors():
            assert t.flags.c_contiguous and t.dtype == params.flat.dtype
            assert t.__array_interface__["data"][0] - base == cursor * t.itemsize, name
            cursor += t.size
            names.append(name)
        assert cursor == params.flat.size == params.n_params()
        assert len(set(names)) == len(names)

        tensors = dict(params.named_tensors())
        views = [(f"gru{i}.{f}", getattr(layer, f)) for i, layer in enumerate(params.gru)
                 for f in ("w_z", "u_h", "b_h")]
        views += [("attn.w_q", params.attn.w_q), ("attn.ln2_bias", params.attn.ln2_bias),
                  ("head.w1", params.head.w1), ("head.b2", params.head.b2)]
        for name, view in views:
            assert view.__array_interface__["data"] == \
                tensors[name].__array_interface__["data"], name
            assert view.shape == tensors[name].shape
        assert params.attn.n_heads == n_heads

        for other in (params.copy(), params.astype(dtype),
                      params.astype(np.float64 if dtype == np.float32 else np.float32)):
            assert not np.shares_memory(other.flat, params.flat)
            np.testing.assert_array_equal(other.flat, params.flat.astype(other.flat.dtype))
            assert other.config == cfg

