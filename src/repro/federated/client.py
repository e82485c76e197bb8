"""Client-side abstractions: the per-round client handle and the shared local SGD loop."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.autograd import tape as tape_mod
from repro.autograd.tape import Plan, PlanCache, PlanError, Tape, bits_equal, tracing
from repro.autograd.tensor import Tensor
from repro.datasets.base import ArrayDataset, DataLoader
from repro.federated.increment import ClientGroup
from repro.nn.module import Module
from repro.nn.optim import SGD, check_sgd_hyperparameters
from repro.utils.logging_utils import get_logger

logger = get_logger(__name__)


@dataclass(frozen=True)
class LocalTrainingConfig:
    """Hyper-parameters of a client's local update (paper: E epochs of SGD)."""

    local_epochs: int = 1
    batch_size: int = 16
    learning_rate: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 0.0
    max_grad_norm: Optional[float] = 5.0

    def __post_init__(self) -> None:
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not self.learning_rate > 0:  # NaN fails too
            raise ValueError("learning_rate must be positive")
        check_sgd_hyperparameters(self.momentum, self.weight_decay, self.max_grad_norm)


@dataclass(frozen=True)
class ShardRef:
    """Identity of a client's training shard, without the payload.

    The parallel executor's data plane ships this light reference with every
    round's handles and the shard bytes themselves only on a worker cache
    miss, so a shard crosses the process boundary once per task instead of
    once per round.  ``cache_key`` is the lookup key of the worker-side
    ``_WORKER_SHARDS`` cache; the fingerprint component invalidates stale
    entries whenever the shard's content changes (e.g. an in-between client
    concatenating its previous task's data at a task boundary).
    """

    client_id: int
    task_id: int
    fingerprint: str
    num_samples: int

    @property
    def cache_key(self) -> Tuple[int, int, str]:
        return (self.client_id, self.task_id, self.fingerprint)


@dataclass(frozen=True)
class VirtualClientSpec:
    """A client as a recipe: ``(seed, partition-spec)`` instead of a shard.

    The virtual-client plane (:mod:`repro.federated.virtual`) keeps the whole
    population as specs and materializes actual :class:`ArrayDataset` shards
    only for a round's selected cohort.  A spec is a pure description — every
    field is derivable from the run config plus the client's schedule history,
    so checkpoints never serialize shards and two materializations of the
    same spec are bit-for-bit identical.

    ``components`` lists the single-domain task ids whose per-task shards
    concatenate into the client's current training data, oldest first: a NEW
    client holds ``(t,)``, an IN_BETWEEN client ``(t_prev, t)`` — exactly the
    eager plane's concat-previous-with-new semantics.  ``population=0`` marks
    a schedule-driven spec (indices come from the shared quantity-shift
    partition of the takers); a positive value marks a fleet-mode spec
    (indices come from the client's own ``spawn_rng(seed, "vshard", task,
    client)`` draw over the domain pool).
    """

    client_id: int
    task_id: int
    group: ClientGroup
    seed: int
    concentration: float
    population: int
    components: Tuple[int, ...]
    domains_held: Tuple[int, ...] = ()


@dataclass
class ClientHandle:
    """Everything a method needs to run one client's local update for one round.

    The simulation constructs a fresh handle per (client, task); the ``group``
    field tells prompt-based methods whether the client is Old, In-between or
    New, which changes the DPCL positive/negative sampling (paper Sec. IV).
    """

    client_id: int
    task_id: int
    group: ClientGroup
    dataset: ArrayDataset
    rng: np.random.Generator
    training: LocalTrainingConfig
    domains_held: Tuple[int, ...] = ()
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def shard_ref(self) -> ShardRef:
        """Light identity of this handle's dataset for the shard-cache data plane."""
        return ShardRef(
            client_id=self.client_id,
            task_id=self.task_id,
            fingerprint=self.dataset.fingerprint(),
            num_samples=len(self.dataset),
        )

    def lighten(self) -> "ClientHandle":
        """A copy of this handle without its dataset payload.

        The parallel executor ships light handles over IPC and workers rebind
        the dataset from their shard cache before training; everything else
        (rng, training config, group, metadata) still travels per round.
        """
        return replace(self, dataset=None)

    def loader(self, shuffle: bool = True) -> DataLoader:
        return DataLoader(
            self.dataset,
            batch_size=self.training.batch_size,
            shuffle=shuffle,
            rng=self.rng,
        )


LossFn = Callable[[Module, Tensor, np.ndarray], Tensor]


class NonFiniteLossError(FloatingPointError):
    """A local step produced a NaN or infinite loss; training stops there.

    Raised before that step's optimizer update, so the client's parameters
    still hold the last finite state.  Carries the client, task and round the
    step belonged to (``round_index`` is None when the handle has none).
    """

    def __init__(
        self, client_id: int, task_id: int, round_index: Optional[int], loss: float
    ) -> None:
        super().__init__(client_id, task_id, round_index, loss)
        self.client_id = client_id
        self.task_id = task_id
        self.round_index = round_index
        self.loss = loss

    def __str__(self) -> str:
        return (
            f"client {self.client_id} (task {self.task_id}, round {self.round_index}) "
            f"produced a non-finite loss {self.loss!r}"
        )


def finite_loss(loss: float, client: ClientHandle) -> float:
    """``loss`` unchanged, or :class:`NonFiniteLossError` if it is NaN/inf."""
    if not math.isfinite(loss):
        round_index = client.metadata.get("round_index")
        raise NonFiniteLossError(
            client.client_id,
            client.task_id,
            None if round_index is None else int(round_index),
            loss,
        )
    return loss


def run_local_sgd(
    model: Module,
    client: ClientHandle,
    loss_fn: LossFn,
    parameters=None,
) -> float:
    """Run ``local_epochs`` of SGD on the client's data and return the mean loss.

    ``loss_fn(model, images, labels)`` computes the method's total loss for a
    mini-batch; this is the hook through which Finetune (plain CE), FedLwF
    (CE + KD), FedEWC (CE + Fisher penalty) and the prompt methods all reuse
    the same loop.  A step whose loss is not finite raises
    :class:`NonFiniteLossError` before its optimizer update, under every kernel.
    """
    trainable = parameters if parameters is not None else model.parameters()
    trainable = [p for p in trainable if p.requires_grad]
    optimizer = SGD(
        trainable,
        lr=client.training.learning_rate,
        momentum=client.training.momentum,
        weight_decay=client.training.weight_decay,
        max_grad_norm=client.training.max_grad_norm,
    )
    model.train()
    if tape_mod.get_kernel() != "eager":
        return _run_local_sgd_tape(model, client, loss_fn, optimizer)
    total_loss = 0.0
    total_batches = 0
    for _ in range(client.training.local_epochs):
        for images, labels in client.loader():
            optimizer.zero_grad()
            loss = loss_fn(model, images, labels)
            loss.backward()
            total_loss += finite_loss(float(loss.data), client)
            optimizer.step()
            total_batches += 1
    return total_loss / max(total_batches, 1)


class _PlanState:
    """Lifecycle of one compiled plan: traced -> verified -> replay-only.

    ``bad`` marks a shape key that either failed to compile (the loss graph
    reaches tensors from outside the traced step) or failed verification (a
    replay did not reproduce the eager step exactly, e.g. a method bakes
    label-derived constants into its graph); such keys run eagerly forever.
    """

    __slots__ = ("plan", "verified", "bad")

    def __init__(self, plan: Optional[Plan]) -> None:
        self.plan = plan
        self.verified = False
        self.bad = plan is None


def _run_local_sgd_tape(
    model: Module,
    client: ClientHandle,
    loss_fn: LossFn,
    optimizer: SGD,
) -> float:
    """The ``kernel="tape"`` local loop: trace once per batch shape, replay after.

    The first batch of a given (image shape/dtype, label shape) traces the
    step and compiles a :class:`~repro.autograd.tape.Plan`; the second batch
    replays the plan *and* runs the eager step on the same inputs, comparing
    loss and every parameter gradient bit-for-bit (buffers and rng streams
    are rewound between the two so both see identical state).  Only after
    that exact match do later batches run replay-only.  Any mismatch or
    compile failure falls back to eager for that shape permanently, so the
    tape kernel is hash-identical to eager by construction.
    """
    plans = PlanCache()
    buffers = dict(model.named_buffers())
    total_loss = 0.0
    total_batches = 0
    for _ in range(client.training.local_epochs):
        for images, labels in client.loader():
            labels_np = np.asarray(labels, dtype=np.int64)
            key = (images.shape, str(images.dtype), labels_np.shape)
            state = plans.get(key)
            optimizer.zero_grad()
            if state is None:
                # First sight of this shape: trace the step while running it.
                tape = Tape()
                tape.register_dynamic("labels", labels_np)
                for name, buf in buffers.items():
                    tape.register_dynamic(f"buffer::{name}", buf)
                tape.mark_input("images", images)
                with tracing(tape):
                    loss = loss_fn(model, images, labels_np)
                try:
                    plans.put(key, _PlanState(Plan(tape, loss)))
                except PlanError as error:
                    logger.debug("plan compile failed (%s); eager fallback", error)
                    plans.put(key, _PlanState(None))
                loss.backward()
                loss_value = float(loss.data)
            elif state.bad:
                loss = loss_fn(model, images, labels_np)
                loss.backward()
                loss_value = float(loss.data)
            elif not state.verified:
                loss_value = _verify_step(state, model, buffers, loss_fn, images, labels_np)
            else:
                bindings = {"labels": labels_np, "images": images.data}
                replayed, leaf_grads = state.plan.execute(bindings)
                state.plan.apply_grads(leaf_grads)
                loss_value = float(replayed)
            total_loss += finite_loss(loss_value, client)
            optimizer.step()
            total_batches += 1
    return total_loss / max(total_batches, 1)


def _verify_step(
    state: _PlanState,
    model: Module,
    buffers: Dict[str, np.ndarray],
    loss_fn: LossFn,
    images: Tensor,
    labels_np: np.ndarray,
) -> float:
    """Replay + eager on the same batch, compare exactly; returns the eager loss.

    The eager step's gradients are left in ``param.grad`` for the caller's
    optimizer step.
    """
    plan = state.plan
    buffer_snapshot = {name: buf.copy() for name, buf in buffers.items()}
    rng_snapshots = [copy.deepcopy(g.bit_generator.state) for g in plan.rng_objects]
    replay_loss, replay_grads = plan.execute(
        {"labels": labels_np, "images": images.data}
    )
    # Rewind state the replay consumed, then run the authoritative eager step.
    for name, buf in buffers.items():
        buf[...] = buffer_snapshot[name]
    for generator, snapshot in zip(plan.rng_objects, rng_snapshots):
        generator.bit_generator.state = snapshot
    grads_before = {slot: p.grad for slot, p in plan.param_leaves}
    loss = loss_fn(model, images, labels_np)
    loss.backward()
    matches = bits_equal(replay_loss, loss.data)
    if matches:
        for slot, param in plan.param_leaves:
            replayed = replay_grads.get(slot)
            before = grads_before[slot]
            expected = (
                replayed if before is None or replayed is None else before + replayed
            )
            if (param.grad is None) != (expected is None) or (
                param.grad is not None and not bits_equal(param.grad, expected)
            ):
                matches = False
                break
    if matches:
        state.verified = True
    else:
        state.bad = True
        logger.warning(
            "tape replay diverged from eager on verification batch; "
            "falling back to eager for this shape"
        )
    return float(loss.data)


__all__ = [
    "LocalTrainingConfig",
    "ShardRef",
    "VirtualClientSpec",
    "ClientHandle",
    "NonFiniteLossError",
    "finite_loss",
    "run_local_sgd",
]
