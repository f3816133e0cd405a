import numpy as np
import pytest

from crosswise.model import ModelConfig, init_params
from crosswise.optim import (LR_FLOOR, PLATEAU_THRESHOLD, AdamWState, PlateauScheduler,
                             adamw_step, clip_gradients, global_grad_norm)


def tiny_params(seed=0):
    cfg = ModelConfig(d_h=8, n_heads=2, d_ff=6, dropout=0.0)
    return init_params(cfg, seed=seed)


def zero_grads(params):
    return {n: np.zeros_like(t) for n, t in params.named_tensors()}


class TestAdamW:
    def test_pure_decay_scaling(self):
        params = tiny_params(seed=1)
        before = {n: t.copy() for n, t in params.named_tensors()}
        adamw_step(params, zero_grads(params), AdamWState.init(params), 2.5e-4, 1e-4)
        factor = 1.0 - 2.5e-4 * 1e-4
        for name, t in params.named_tensors():
            np.testing.assert_array_equal(t, before[name] * factor)

    def test_unit_step_property(self):
        # with wd=0 and a constant gradient, |update| approaches lr
        params = tiny_params(seed=2)
        lr = 2.5e-4
        state = AdamWState.init(params)
        grads = {n: np.full_like(t, 0.37) for n, t in params.named_tensors()}
        prev = None
        for _ in range(1000):
            prev = {n: t.copy() for n, t in params.named_tensors()}
            adamw_step(params, {n: g.copy() for n, g in grads.items()}, state, lr, 0.0)
        for name, t in params.named_tensors():
            delta = np.abs(t - prev[name])
            np.testing.assert_allclose(delta, lr, rtol=0.01)

    def test_non_finite_gradient_rejected(self):
        params = tiny_params(seed=3)
        grads = zero_grads(params)
        grads["head.w1"][0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            adamw_step(params, grads, AdamWState.init(params), 2.5e-4, 1e-4)

    def test_identical_runs_bit_identical(self):
        results = []
        for _ in range(2):
            params = tiny_params(seed=4)
            state = AdamWState.init(params)
            rng = np.random.default_rng(9)
            for _ in range(20):
                grads = {n: rng.standard_normal(t.shape)
                         for n, t in params.named_tensors()}
                adamw_step(params, grads, state, 2.5e-4, 1e-4)
            results.append({n: t.copy() for n, t in params.named_tensors()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_step_counter(self):
        params = tiny_params(seed=5)
        state = AdamWState.init(params)
        adamw_step(params, zero_grads(params), state, 2.5e-4, 1e-4)
        adamw_step(params, zero_grads(params), state, 2.5e-4, 1e-4)
        assert state.step == 2


class TestClipGradients:
    def test_halves_at_norm_two(self):
        grads = {"a": np.array([2.0, 0.0]), "b": np.array([0.0, 0.0])}
        clip_gradients(grads, max_norm=1.0)
        np.testing.assert_allclose(grads["a"], [1.0, 0.0])

    def test_untouched_below_max(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_gradients(grads, max_norm=1.0)
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])

    def test_post_clip_norm_bounded_100_draws(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            grads = {f"t{i}": rng.standard_normal((3, 4)) * rng.uniform(0.01, 10)
                     for i in range(4)}
            clip_gradients(grads, max_norm=1.0)
            assert global_grad_norm(grads) <= 1.0 + 1e-12


class TestPlateauScheduler:
    def test_improving_losses_keep_lr(self):
        sched = PlateauScheduler(lr=2.5e-4)
        for loss in (1.0, 0.9, 0.8):
            lr = sched.update(loss)
        assert lr == 2.5e-4

    def test_two_flat_epochs_halve(self):
        sched = PlateauScheduler(lr=2.5e-4)
        lrs = [sched.update(v) for v in (1.0, 1.0, 1.0)]
        assert lrs == [2.5e-4, 2.5e-4, 1.25e-4]

    def test_counter_resets_after_halving(self):
        sched = PlateauScheduler(lr=2.5e-4)
        lrs = [sched.update(1.0) for _ in range(5)]
        assert lrs == [2.5e-4, 2.5e-4, 1.25e-4, 1.25e-4, 6.25e-5]

    def test_improvement_below_threshold_is_a_plateau(self):
        assert PLATEAU_THRESHOLD == 1e-4
        sched = PlateauScheduler(lr=2.5e-4)
        lrs = [sched.update(v) for v in (1.0, 1.0 - 5e-5, 1.0 - 9e-5)]
        assert lrs[-1] == 1.25e-4

    def test_floor_respected(self):
        sched = PlateauScheduler(lr=2.5e-4)
        lr = 2.5e-4
        for _ in range(40):
            lr = sched.update(1.0)
        assert lr == LR_FLOOR == 1e-6
