"""Lockstep multi-client batching: one vectorized plan step trains K clients.

The ``kernel="batched"`` execution path.  Between broadcast and aggregation a
round's selected clients all start from the same global state and (for the
cross-entropy family of methods) run the *same program* — only their
parameters and mini-batches differ.  This module exploits that: it traces one
client's SGD step into a :class:`~repro.autograd.tape.Plan`, stacks the
cohort's parameters, buffers and batches along a leading client axis, and
replays a single vectorized step for all K clients at once
(:meth:`Plan.execute_batched` + :class:`~repro.nn.optim.BatchedSGD`), turning
K model-sized forward/backward passes per step into one K-stacked pass.

Exactness contract
------------------
Lockstep is *exact in structure* — every client sees exactly the mini-batches
its own rng would have drawn under the serial path, in the same order, for
the same number of steps — but *tolerance-level in floats*: stacked matmuls
and reductions accumulate in a different order than K separate calls, so
trained weights match eager per-client training to float tolerance rather
than bit-for-bit (the documented accuracy of the batched kernel).

Eligibility and fallback
------------------------
A client trains in lockstep only when all of the following hold; anything
else falls back to the per-client path (which under ``kernel="batched"`` is
the tape kernel — itself verified hash-identical to eager):

* the method is a :class:`~repro.baselines.base.CrossEntropyFederatedMethod`
  that does **not** override ``local_update`` (its local loop is exactly
  ``run_local_sgd`` over ``batch_loss``);
* at least two clients share a lockstep group — same
  :class:`~repro.federated.client.LocalTrainingConfig`, same shard length and
  same sample shape/dtype, which guarantees equal step counts and equal batch
  shapes (the *equal step count* requirement of the vectorized plan);
* the traced step compiles and is batchable (no rng-consuming ops such as
  active dropout, no trainable state outside the stacked parameters).

Fallback never corrupts determinism: client rng states are snapshotted before
lockstep pre-draws any batches and rewound if the group is abandoned, so the
per-client path consumes exactly the draws it would have consumed anyway.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.tape import Plan, PlanCache, PlanError, PlanNotBatchable, Tape, tracing
from repro.federated.client import ClientHandle, finite_loss
from repro.federated.communication import ClientUpdate
from repro.federated.method import FederatedMethod
from repro.federated.server import BroadcastHandle
from repro.nn.module import Module
from repro.nn.optim import BatchedSGD
from repro.utils.logging_utils import get_logger

logger = get_logger(__name__)


@dataclass
class LockstepTelemetry:
    """Counters of how a run's clients actually executed (bench material)."""

    lockstep_rounds: int = 0  #: rounds that ran at least one vectorized group
    lockstep_clients: int = 0  #: clients trained through a stacked plan
    fallback_clients: int = 0  #: clients that ran the per-client path
    plans_compiled: int = 0  #: distinct (group, batch shape) traces compiled
    plan_cache_hits: int = 0  #: per-step plan lookups served from the LRU cache
    plan_cache_misses: int = 0  #: lookups that had to trace + compile
    plan_cache_evictions: int = 0  #: compiled plans dropped by the LRU bound


def _method_is_eligible(method: FederatedMethod) -> bool:
    """True when the method's local loop is exactly the shared SGD loop."""
    # Local import: baselines import the federated package at module load.
    from repro.baselines.base import CrossEntropyFederatedMethod

    return (
        isinstance(method, CrossEntropyFederatedMethod)
        and type(method).local_update is CrossEntropyFederatedMethod.local_update
    )


def _group_key(client: ClientHandle) -> Tuple:
    """Clients with equal keys run equal step counts with equal batch shapes."""
    images = client.dataset.images
    return (
        client.training,
        len(client.dataset),
        tuple(images.shape[1:]),
        str(images.dtype),
    )


class _CompiledStep:
    """One traced batch shape: the plan plus its slot <-> parameter-name map.

    Also owns the per-shape replay scratch the step loop reuses instead of
    reallocating: the stacked image/label input buffers (filled in place with
    ``np.stack(..., out=...)`` each step) and the slot-keyed view of the
    group's persistent parameter stacks (the stack arrays are updated in
    place by :class:`~repro.nn.optim.BatchedSGD`, so the dict built once at
    compile time stays valid for every later step).
    """

    __slots__ = ("plan", "slot_to_name", "extra_stacks", "images_buf", "labels_buf", "param_stacks")

    def __init__(
        self,
        plan: Plan,
        slot_to_name: Dict[int, str],
        extra_stacks: Dict[int, np.ndarray],
    ) -> None:
        self.plan = plan
        self.slot_to_name = slot_to_name
        self.extra_stacks = extra_stacks
        self.images_buf: Optional[np.ndarray] = None
        self.labels_buf: Optional[np.ndarray] = None
        self.param_stacks: Optional[Dict[int, np.ndarray]] = None


def _compile_step(
    method: FederatedMethod,
    model: Module,
    client: ClientHandle,
    images: Any,
    labels_np: np.ndarray,
    k: int,
) -> _CompiledStep:
    """Trace one client step on a throwaway model copy and prepare it for K.

    The deep copy isolates the trace's side effects (batch-norm running-stat
    updates, any rng the forward might consume) from the live model, so an
    abandoned group leaves no trace and the fallback path sees pristine
    state.  Replay binds parameters/buffers by slot, so the copy's values are
    never read again after compilation.
    """
    trace_model = copy.deepcopy(model)
    trace_model.train()
    tape = Tape()
    tape.register_dynamic("labels", labels_np)
    for name, buf in trace_model.named_buffers():
        tape.register_dynamic(f"buffer::{name}", buf)
    tape.mark_input("images", images)
    with tracing(tape):
        loss = method.batch_loss(trace_model, images, labels_np, client)
    plan = Plan(tape, loss)
    stacked_slots = [slot for slot, p in plan.param_leaves if p.requires_grad]
    plan.prepare_batched(stacked_slots)
    name_by_id = {id(p): name for name, p in trace_model.named_parameters()}
    slot_to_name: Dict[int, str] = {}
    extra_stacks: Dict[int, np.ndarray] = {}
    for slot, param in plan.param_leaves:
        if not param.requires_grad:
            continue
        name = name_by_id.get(id(param))
        if name is not None:
            slot_to_name[slot] = name
        else:
            # A requires-grad leaf outside the model (e.g. a frozen-by-no_grad
            # teacher's parameters): stacked so the plan accepts it, but it
            # never receives gradients, so the stack stays a broadcast copy.
            extra_stacks[slot] = np.broadcast_to(
                param.data, (k,) + param.data.shape
            ).copy()
    return _CompiledStep(plan, slot_to_name, extra_stacks)


def _train_group(
    method: FederatedMethod,
    model: Module,
    broadcast: BroadcastHandle,
    group: Sequence[Tuple[int, ClientHandle]],
    telemetry: LockstepTelemetry,
) -> Optional[List[Tuple[int, ClientUpdate]]]:
    """Train one lockstep group; None (with rngs rewound) means fall back."""
    rng_snapshots = [
        copy.deepcopy(client.rng.bit_generator.state) for _, client in group
    ]
    try:
        return _train_group_inner(method, model, broadcast, group, telemetry)
    except PlanError as error:
        logger.debug("lockstep group fell back to per-client path: %s", error)
        for (_, client), snapshot in zip(group, rng_snapshots):
            client.rng.bit_generator.state = snapshot
        return None


def _train_group_inner(
    method: FederatedMethod,
    model: Module,
    broadcast: BroadcastHandle,
    group: Sequence[Tuple[int, ClientHandle]],
    telemetry: LockstepTelemetry,
) -> List[Tuple[int, ClientUpdate]]:
    k = len(group)
    training = group[0][1].training
    model.load_state_dict(broadcast.state)
    model.train()

    # Pre-draw every epoch's mini-batches per client, in selection order,
    # from each client's own rng — exactly the draws the serial loop makes.
    per_client_steps: List[List[Tuple[Any, np.ndarray]]] = []
    for _, client in group:
        loader = client.loader()
        steps: List[Tuple[Any, np.ndarray]] = []
        for _ in range(training.local_epochs):
            for images, labels in loader:
                steps.append((images, np.asarray(labels, dtype=np.int64)))
        per_client_steps.append(steps)
    n_steps = len(per_client_steps[0])
    if any(len(steps) != n_steps for steps in per_client_steps):
        raise PlanNotBatchable("clients in group drew unequal step counts")

    # Stacks start as K broadcast copies of the round's global state; the
    # vectorized optimizer then walks each client's slice independently.
    param_stacks_by_name = {
        name: np.broadcast_to(p.data, (k,) + p.data.shape).copy()
        for name, p in model.named_parameters()
        if p.requires_grad
    }
    buffer_stacks = {
        name: np.broadcast_to(buf, (k,) + buf.shape).copy()
        for name, buf in model.named_buffers()
    }
    optimizer = BatchedSGD(
        k,
        lr=training.learning_rate,
        momentum=training.momentum,
        weight_decay=training.weight_decay,
        max_grad_norm=training.max_grad_norm,
    )

    compiled = PlanCache()
    buffer_bindings = {
        f"buffer::{name}": stack for name, stack in buffer_stacks.items()
    }
    loss_totals = np.zeros(k)
    try:
        for step in range(n_steps):
            images0, labels0 = per_client_steps[0][step]
            shape_key = (images0.data.shape, str(images0.data.dtype), labels0.shape)
            for steps in per_client_steps[1:]:
                images_c, labels_c = steps[step]
                if (images_c.data.shape, str(images_c.data.dtype), labels_c.shape) != shape_key:
                    raise PlanNotBatchable("clients in group drew unequal batch shapes")
            entry = compiled.get(shape_key)
            if entry is None:
                entry = _compile_step(method, model, group[0][1], images0, labels0, k)
                compiled.put(shape_key, entry)
                telemetry.plans_compiled += 1
                entry.images_buf = np.empty(
                    (k,) + images0.data.shape, dtype=images0.data.dtype
                )
                entry.labels_buf = np.empty((k,) + labels0.shape, dtype=labels0.dtype)
                entry.param_stacks = {
                    slot: param_stacks_by_name[name]
                    for slot, name in entry.slot_to_name.items()
                }
                entry.param_stacks.update(entry.extra_stacks)
            np.stack(
                [steps[step][0].data for steps in per_client_steps],
                out=entry.images_buf,
            )
            np.stack(
                [steps[step][1] for steps in per_client_steps], out=entry.labels_buf
            )
            bindings: Dict[str, Any] = {
                "images": entry.images_buf,
                "labels": entry.labels_buf,
            }
            bindings.update(buffer_bindings)
            loss_vec, grads = entry.plan.execute_batched(k, bindings, entry.param_stacks)
            loss_vec = np.asarray(loss_vec).reshape(k)
            non_finite = np.flatnonzero(~np.isfinite(loss_vec))
            if non_finite.size:
                first = non_finite[0]
                finite_loss(float(loss_vec[first]), group[first][1])
            named_grads = {
                entry.slot_to_name[slot]: grad
                for slot, grad in grads.items()
                if slot in entry.slot_to_name
            }
            optimizer.step(param_stacks_by_name, named_grads)
            loss_totals += loss_vec
    finally:
        telemetry.plan_cache_hits += compiled.hits
        telemetry.plan_cache_misses += compiled.misses
        telemetry.plan_cache_evictions += compiled.evictions

    # Unstack each client's slice back into the live model to build its
    # update exactly as the serial path would (state_dict copies, payload
    # computed on the trained weights).
    results: List[Tuple[int, ClientUpdate]] = []
    for kk, (index, client) in enumerate(group):
        for name, param in model.named_parameters():
            if name in param_stacks_by_name:
                param.data[...] = param_stacks_by_name[name][kk]
        for name, buf in model.named_buffers():
            buf[...] = buffer_stacks[name][kk]
        update = ClientUpdate(
            client_id=client.client_id,
            state_dict=model.state_dict(),
            num_samples=client.num_samples,
            payload=method.extra_payload(model, client),
            train_loss=float(loss_totals[kk]) / max(n_steps, 1),
        )
        results.append((index, update))
    return results


def run_lockstep_round(
    method: FederatedMethod,
    model: Module,
    broadcast: BroadcastHandle,
    clients: Sequence[ClientHandle],
    telemetry: Optional[LockstepTelemetry] = None,
) -> List[ClientUpdate]:
    """Run one round's local updates, vectorizing every eligible client group.

    Returns updates in selection order, exactly like the serial executor.
    Ineligible methods, singleton groups and groups whose trace fails to
    compile or batch all run the per-client path.
    """
    telemetry = telemetry if telemetry is not None else LockstepTelemetry()
    updates: List[Optional[ClientUpdate]] = [None] * len(clients)

    if not _method_is_eligible(method):
        telemetry.fallback_clients += len(clients)
        return [
            _run_client_serial(method, model, broadcast, client) for client in clients
        ]

    groups: Dict[Tuple, List[Tuple[int, ClientHandle]]] = {}
    for index, client in enumerate(clients):
        groups.setdefault(_group_key(client), []).append((index, client))

    ran_lockstep = False
    for group in groups.values():
        trained = (
            _train_group(method, model, broadcast, group, telemetry)
            if len(group) >= 2
            else None
        )
        if trained is None:
            for index, client in group:
                updates[index] = _run_client_serial(method, model, broadcast, client)
            telemetry.fallback_clients += len(group)
        else:
            for index, update in trained:
                updates[index] = update
            telemetry.lockstep_clients += len(group)
            ran_lockstep = True
    if ran_lockstep:
        telemetry.lockstep_rounds += 1
    return [update for update in updates if update is not None]


def _run_client_serial(
    method: FederatedMethod,
    model: Module,
    broadcast: BroadcastHandle,
    client: ClientHandle,
) -> ClientUpdate:
    """The per-client fallback: identical to SerialExecutor's inner loop."""
    model.load_state_dict(broadcast.state)
    return method.local_update(model, broadcast.state, broadcast.payload, client)


__all__ = ["LockstepTelemetry", "run_lockstep_round"]
