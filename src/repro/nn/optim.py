"""Gradient-based optimisers.

The paper trains every method with SGD; Adam is included because the CDAP
prompt generator converges noticeably faster with it at tiny scale, and the
experiment configs can select either.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base class holding a parameter list and a learning rate."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if not lr > 0:  # NaN fails too
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


def check_sgd_hyperparameters(
    momentum: float, weight_decay: float, max_grad_norm: Optional[float]
) -> None:
    """Reject SGD settings that would silently invert or disable training.

    A non-positive clip bound rescales every gradient by ``max_grad_norm /
    norm`` — zero freezes the model, a negative bound flips the step into
    gradient ascent; a momentum of 1 or more never lets old gradients decay,
    a negative one flips their sign; a negative weight decay would be
    skipped by the ``> 0`` test.
    """
    if max_grad_norm is not None and not max_grad_norm > 0:
        raise ValueError(f"max_grad_norm must be positive or None, got {max_grad_norm}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if not weight_decay >= 0.0:
        raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")


class SGD(Optimizer):
    """Stochastic gradient descent with momentum, weight decay and optional Nesterov."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
        max_grad_norm: Optional[float] = None,
    ) -> None:
        super().__init__(parameters, lr)
        check_sgd_hyperparameters(momentum, weight_decay, max_grad_norm)
        if nesterov and momentum <= 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self.max_grad_norm = max_grad_norm
        self._velocity: Dict[int, np.ndarray] = {}

    def _clip_gradients(self) -> None:
        if self.max_grad_norm is None:
            return
        # Frozen params are skipped, consistent with step(): a stale grad left
        # on a parameter that was later frozen must neither inflate the global
        # norm nor be rescaled.
        total = 0.0
        for param in self.parameters:
            if param.grad is not None and param.requires_grad:
                total += float(np.sum(param.grad ** 2))
        norm = np.sqrt(total)
        if norm > self.max_grad_norm and norm > 0:
            scale = self.max_grad_norm / norm
            for param in self.parameters:
                if param.grad is not None and param.requires_grad:
                    param.grad *= scale

    def step(self) -> None:
        self._clip_gradients()
        for param in self.parameters:
            if param.grad is None or not param.requires_grad:
                continue
            grad = param.grad
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * param.data
            if self.momentum > 0:
                velocity = self._velocity.get(id(param))
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocity[id(param)] = velocity
                grad = grad + self.momentum * velocity if self.nesterov else velocity
            param.data -= self.lr * grad


class BatchedSGD:
    """SGD over K clients' parameter stacks at once (the lockstep kernel).

    Operates on ``{slot: (K,) + shape}`` arrays produced by
    :meth:`repro.autograd.tape.Plan.execute_batched` instead of
    :class:`~repro.nn.module.Parameter` objects.  The update order mirrors
    :class:`SGD.step` exactly — clip, weight decay, momentum, descent — with
    each stage vectorized over the leading client axis.  Per-client results
    match eager SGD up to float accumulation order: the eager clip norm sums
    python floats parameter-by-parameter while the vectorized norm reduces
    each stack in one BLAS call, so the batched kernel is tolerance-level,
    not bit-for-bit.
    """

    def __init__(
        self,
        k: int,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
        max_grad_norm: Optional[float] = None,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if nesterov and momentum <= 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.k = k
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self.max_grad_norm = max_grad_norm
        self._velocity: Dict[int, np.ndarray] = {}

    def _clip_gradients(self, grads: Dict[int, np.ndarray]) -> None:
        if self.max_grad_norm is None:
            return
        total = np.zeros(self.k)
        for grad in grads.values():
            total += np.sum(grad.reshape(self.k, -1) ** 2, axis=1)
        norm = np.sqrt(total)
        scale = np.where(
            (norm > self.max_grad_norm) & (norm > 0),
            self.max_grad_norm / np.maximum(norm, 1e-300),
            1.0,
        )
        for slot, grad in grads.items():
            grads[slot] = grad * scale.reshape((self.k,) + (1,) * (grad.ndim - 1))

    def step(self, param_stacks: Dict[int, np.ndarray], grads: Dict[int, np.ndarray]) -> None:
        """Update ``param_stacks`` in place from stacked gradients."""
        self._clip_gradients(grads)
        for slot, grad in grads.items():
            data = param_stacks[slot]
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * data
            if self.momentum > 0:
                velocity = self._velocity.get(slot)
                if velocity is None:
                    velocity = np.zeros_like(data)
                velocity = self.momentum * velocity + grad
                self._velocity[slot] = velocity
                grad = grad + self.momentum * velocity if self.nesterov else velocity
            data -= self.lr * grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for param in self.parameters:
            if param.grad is None or not param.requires_grad:
                continue
            grad = param.grad
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * param.data
            m = self._first_moment.get(id(param))
            v = self._second_moment.get(id(param))
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad ** 2
            self._first_moment[id(param)] = m
            self._second_moment[id(param)] = v
            param.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


__all__ = ["Optimizer", "SGD", "BatchedSGD", "Adam", "check_sgd_hyperparameters"]
