"""Central server: holds the global model state and performs aggregation."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.federated.aggregation import FlatReduceBackend, ReduceBackend, blend_states
from repro.federated.communication import ClientUpdate, CommunicationLedger
from repro.nn.module import Module
from repro.nn.serialization import (
    clone_state_dict,
    readonly_payload_view,
    readonly_state_view,
    serialize_state,
)


class BroadcastHandle:
    """One round's broadcast, shared by every selected client without copies.

    ``state`` is a write-protected, no-copy view of the canonical global state
    (see :func:`repro.nn.serialization.readonly_state_view`); handing the same
    handle to all ``M`` clients of a round therefore costs zero array copies,
    where the legacy :meth:`FederatedServer.broadcast` deep-copied the whole
    model once per client.  :meth:`serialized` pickles the state and payload
    at most once per round, so parallel executors ship a single serialization
    to their workers instead of re-pickling per client.
    """

    __slots__ = ("state", "payload", "_blob")

    def __init__(self, state: Dict[str, np.ndarray], payload: Dict[str, Any]) -> None:
        self.state = readonly_state_view(state)
        self.payload = readonly_payload_view(payload)
        self._blob: Optional[bytes] = None

    def serialized(self) -> bytes:
        """The pickled ``(state, payload)`` pair, computed lazily exactly once."""
        if self._blob is None:
            self._blob = serialize_state(self.state, self.payload)
        return self._blob


class FederatedServer:
    """The global coordinator ``M_G`` of paper Algorithm 1.

    The server owns the canonical global model state, broadcasts it (plus any
    method-specific payload such as clustered global prompts) to selected
    clients, aggregates their updates with FedAvg and holds the communication
    ledger the transport records measured wire frames into.
    """

    def __init__(self, model: Module, reduce_backend: Optional[ReduceBackend] = None) -> None:
        self.model = model
        self.global_state: Dict[str, np.ndarray] = model.state_dict()
        self.broadcast_payload: Dict[str, Any] = {}
        self.ledger = CommunicationLedger()
        #: Aggregation topology (:mod:`repro.federated.aggregation`): the
        #: default flat backend is one server-side FedAvg, bit-for-bit the
        #: historical path; a tree backend reduces through edge aggregators
        #: whose partials ride measured wire frames.
        self.reduce_backend: ReduceBackend = (
            reduce_backend if reduce_backend is not None else FlatReduceBackend()
        )
        self.round_counter = 0
        self._broadcast_handle: Optional[BroadcastHandle] = None
        self._aggregation_scale: Optional[Sequence[float]] = None

    def broadcast(self) -> Dict[str, np.ndarray]:
        """Return a copy of the global state for a client to load.

        Legacy per-client path; the simulation loop now uses
        :meth:`broadcast_view`, which shares one read-only view across all
        clients of a round instead of deep-copying per client.
        """
        return clone_state_dict(self.global_state)

    def broadcast_view(self) -> BroadcastHandle:
        """Return the round's shared zero-copy broadcast handle.

        The handle is cached until the global state or payload changes, so
        repeated calls within one round are free and its cached serialization
        is reused across all workers of a parallel round.  ``aggregate`` and
        ``set_broadcast_payload`` invalidate it themselves; callers that let a
        method hook mutate ``global_state`` directly must call
        :meth:`invalidate_broadcast` afterwards (the simulation loop does,
        after every server-facing hook), or the cached handle would keep
        serving the pre-hook state.
        """
        if self._broadcast_handle is None:
            self._broadcast_handle = BroadcastHandle(self.global_state, self.broadcast_payload)
        return self._broadcast_handle

    def invalidate_broadcast(self) -> None:
        """Drop the cached broadcast handle (and its serialization)."""
        self._broadcast_handle = None

    def aggregate(self, updates: List[ClientUpdate]) -> Dict[str, np.ndarray]:
        """FedAvg the updates into a new global state (weighted by |D_m|).

        When an :meth:`aggregation_scale` scope is active, each update's
        sample weight is additionally multiplied by its scale factor — the
        temporal plane's staleness-aware buffered flush.  Outside such a
        scope this is plain FedAvg, bit-for-bit.
        """
        if not updates:
            raise ValueError("cannot aggregate zero client updates")
        scale = self._aggregation_scale
        if scale is not None and len(scale) != len(updates):
            raise ValueError(
                f"aggregation_scale has {len(scale)} factors but {len(updates)} "
                "updates arrived; the scope must cover exactly the updates it "
                "was declared for"
            )
        new_state = self.reduce_backend.reduce(
            [update.state_dict for update in updates],
            [update.num_samples for update in updates],
            scale=scale,
            coordinate=self.round_counter,
        )
        self._aggregation_scale = None  # a scope covers exactly one aggregation
        self.global_state = new_state
        self.model.load_state_dict(new_state)
        self.round_counter += 1
        self._broadcast_handle = None
        return new_state

    @contextmanager
    def aggregation_scale(self, scale: Sequence[float]) -> Iterator[None]:
        """Scope a per-update weight multiplier over the next :meth:`aggregate`.

        The temporal plane staleness-weights a buffered flush *through* the
        method's own ``aggregate`` hook (which may do arbitrary payload work
        around ``server.aggregate``), so the scale travels on the server
        instead of every method signature: the first ``aggregate`` inside the
        scope consumes it, and it never leaks past the ``with`` block.
        """
        self._aggregation_scale = list(scale)
        try:
            yield
        finally:
            self._aggregation_scale = None

    def apply_update(self, update: ClientUpdate, mixing: float) -> Dict[str, np.ndarray]:
        """FedAsync-style per-arrival application: ``x <- (1-m) x + m x_k``.

        ``mixing`` is the staleness-discounted mixing rate in ``(0, 1]``; the
        blend itself is :func:`repro.federated.aggregation.blend_states`.
        The standalone-server counterpart of
        :meth:`FederatedMethod.apply_async_update` (which methods route
        through their own ``aggregate`` hook so payload machinery sees the
        arrival).  Counts as one global-model version (``round_counter``),
        which is exactly what the temporal plane's staleness bookkeeping
        measures.
        """
        new_state = blend_states(self.global_state, update.state_dict, mixing)
        self.global_state = new_state
        self.model.load_state_dict(new_state)
        self.round_counter += 1
        self._broadcast_handle = None
        return new_state

    def load_into(self, model: Module) -> None:
        """Load the current global state into an arbitrary model instance."""
        model.load_state_dict(self.global_state)

    def set_broadcast_payload(self, payload: Dict[str, Any]) -> None:
        """Attach method-specific broadcast content (e.g. RefFiL's global prompts)."""
        self.broadcast_payload = payload
        self._broadcast_handle = None


__all__ = ["FederatedServer", "BroadcastHandle"]
