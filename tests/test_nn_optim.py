"""Tests for optimisers and learning-rate schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F
from repro.nn.linear import Linear
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam
from repro.nn.scheduler import ConstantLR, CosineAnnealingLR, StepLR

RNG = np.random.default_rng(5)


def _quadratic_step(optimizer, param):
    optimizer.zero_grad()
    loss = (param * param).sum()
    loss.backward()
    optimizer.step()
    return float(loss.data)


class TestSGD:
    def test_plain_sgd_matches_manual_update(self):
        p = Parameter(np.array([2.0]))
        SGD([p], lr=0.1).step()  # no grad yet -> no change
        assert p.data[0] == pytest.approx(2.0)
        opt = SGD([p], lr=0.1)
        _quadratic_step(opt, p)
        # grad = 2 * 2 = 4, update = 0.1 * 4
        assert p.data[0] == pytest.approx(2.0 - 0.4)

    def test_sgd_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = SGD([p], lr=0.2)
        for _ in range(50):
            _quadratic_step(opt, p)
        assert np.allclose(p.data, 0.0, atol=1e-3)

    def test_momentum_accelerates(self):
        plain = Parameter(np.array([5.0]))
        momentum = Parameter(np.array([5.0]))
        opt_plain = SGD([plain], lr=0.02)
        opt_momentum = SGD([momentum], lr=0.02, momentum=0.9)
        for _ in range(20):
            _quadratic_step(opt_plain, plain)
            _quadratic_step(opt_momentum, momentum)
        assert abs(momentum.data[0]) < abs(plain.data[0])

    def test_weight_decay_shrinks_parameters(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_grad_clipping_bounds_update(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, max_grad_norm=1.0)
        p.grad = np.array([100.0])
        opt.step()
        assert abs(p.data[0]) <= 1.0 + 1e-9

    def test_frozen_parameters_not_updated(self):
        p = Parameter(np.array([1.0]))
        p.requires_grad = False
        opt = SGD([p], lr=0.5)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(1.0)

    def test_validation_errors(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([p], lr=-0.1)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, nesterov=True)
        # Settings that would silently invert or disable training.
        for kwargs in (
            {"max_grad_norm": -1.0},  # the clip scale flips the sign: gradient ascent
            {"max_grad_norm": 0.0},  # the clip scale zeroes every step
            {"momentum": -0.5},
            {"momentum": 1.0},
            {"momentum": 1.5},
            {"weight_decay": -0.1},  # skipped by the ``> 0`` test
        ):
            with pytest.raises(ValueError):
                SGD([p], lr=0.1, **kwargs)

    def test_nesterov_runs(self):
        p = Parameter(np.array([5.0]))
        opt = SGD([p], lr=0.1, momentum=0.9, nesterov=True)
        for _ in range(20):
            _quadratic_step(opt, p)
        assert abs(p.data[0]) < 5.0


class TestAdam:
    def test_adam_converges_on_quadratic(self):
        p = Parameter(np.array([4.0, -4.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            _quadratic_step(opt, p)
        assert np.allclose(p.data, 0.0, atol=0.05)

    def test_adam_trains_linear_regression(self):
        layer = Linear(3, 1, rng=RNG)
        target_w = np.array([[1.0, -2.0, 0.5]])
        x = RNG.standard_normal((64, 3))
        y = x @ target_w.T
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(150):
            opt.zero_grad()
            loss = F.mse_loss(layer(Tensor(x)), Tensor(y))
            loss.backward()
            opt.step()
        assert np.allclose(layer.weight.data, target_w, atol=0.1)


class TestSchedulers:
    def test_constant(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.3)
        sched = ConstantLR(opt)
        for _ in range(5):
            sched.step()
        assert opt.lr == pytest.approx(0.3)

    def test_step_lr_decays(self):
        opt = SGD([Parameter(np.array([1.0]))], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = [sched.step() for _ in range(4)]
        assert lrs[0] == pytest.approx(1.0)
        assert lrs[1] == pytest.approx(0.1)
        assert lrs[3] == pytest.approx(0.01)

    def test_cosine_lr_endpoints(self):
        opt = SGD([Parameter(np.array([1.0]))], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10, eta_min=0.0)
        values = [sched.step() for _ in range(10)]
        assert values[0] < 1.0
        assert values[-1] == pytest.approx(0.0, abs=1e-9)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_scheduler_validation(self):
        opt = SGD([Parameter(np.array([1.0]))], lr=1.0)
        with pytest.raises(ValueError):
            StepLR(opt, step_size=0)
        with pytest.raises(ValueError):
            CosineAnnealingLR(opt, t_max=0)


class TestClipFrozenParams:
    def test_clip_norm_excludes_frozen_params(self):
        # A stale grad left on a later-frozen parameter must not inflate the
        # global norm: with only the live grad (norm 3) clipped to 1, the
        # update is exactly -1; counting the frozen grad would make it -0.6.
        live = Parameter(np.array([3.0]))
        frozen = Parameter(np.array([0.0]))
        frozen.requires_grad = False
        opt = SGD([live, frozen], lr=1.0, max_grad_norm=1.0)
        live.grad = np.array([3.0])
        frozen.grad = np.array([4.0])
        opt.step()
        assert live.data[0] == pytest.approx(2.0)
        assert frozen.data[0] == pytest.approx(0.0)

    def test_frozen_grad_not_rescaled(self):
        frozen = Parameter(np.array([0.0]))
        frozen.requires_grad = False
        live = Parameter(np.array([0.0]))
        opt = SGD([live, frozen], lr=1.0, max_grad_norm=1.0)
        live.grad = np.array([2.0])
        frozen.grad = np.array([7.0])
        opt.step()
        assert frozen.grad[0] == pytest.approx(7.0)


class TestBatchedSGD:
    """The lockstep optimizer must track K independent eager SGDs."""

    def _run_pair(self, **kwargs):
        from repro.nn.optim import BatchedSGD

        rng = np.random.default_rng(11)
        k, shape = 3, (4, 2)
        init = rng.standard_normal((k,) + shape)
        grads_per_step = [rng.standard_normal((k,) + shape) for _ in range(4)]

        eager_params = [Parameter(init[i].copy()) for i in range(k)]
        eager_opts = [SGD([p], lr=0.1, **kwargs) for p in eager_params]
        for grads in grads_per_step:
            for i, (p, opt) in enumerate(zip(eager_params, eager_opts)):
                p.grad = grads[i].copy()
                opt.step()

        stacks = {0: init.copy()}
        batched = BatchedSGD(k, lr=0.1, **kwargs)
        for grads in grads_per_step:
            batched.step(stacks, {0: grads.copy()})

        stacked_eager = np.stack([p.data for p in eager_params])
        return stacked_eager, stacks[0]

    def test_plain_sgd_parity_is_exact(self):
        eager, batched = self._run_pair()
        assert np.array_equal(eager, batched)

    def test_momentum_weight_decay_parity(self):
        eager, batched = self._run_pair(momentum=0.9, weight_decay=0.01, nesterov=True)
        assert np.allclose(eager, batched, atol=1e-12)

    def test_clip_parity_per_client(self):
        eager, batched = self._run_pair(max_grad_norm=0.5)
        assert np.allclose(eager, batched, atol=1e-12)
