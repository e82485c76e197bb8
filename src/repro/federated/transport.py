"""The wire transport: how broadcasts and uploads actually move.

The :class:`Transport` sits between the simulation loop and the server on
both directions of every communication round, and every message it carries
is really encoded through the configured
:class:`~repro.federated.communication.ArrayCodec`:

* :meth:`Transport.broadcast_round` turns the server's global state (plus the
  method's broadcast payload) into per-client wire frames, records their
  measured sizes in the :class:`~repro.federated.communication.CommunicationLedger`,
  and returns the :class:`~repro.federated.server.BroadcastHandle` the
  clients train from — built over the *decoded* frames, so lossy codecs
  train against exactly what a constrained device would have received;
* :meth:`Transport.collect_updates` encodes every client's
  :class:`~repro.federated.communication.ClientUpdate` into an upload frame,
  applies the bandwidth scenario (per-client budgets, drop-or-defer
  stragglers), decodes what arrives, and hands the surviving updates to
  aggregation — decode-before-aggregate.

The ``identity`` codec short-circuits the decode (its round-trip is the
pickle the executor already performs), so the default configuration trains
from the server's own objects, bit-for-bit, while the ledger still records
the length of every real frame.

Delta acknowledgements: the downlink ``delta`` codec encodes each client's
frame against the last broadcast that client received (clients selected in
different past rounds hold different references; unseen clients get a dense
frame).  Encoder and decoder share the reference object in-process, so the
diff chain can never desynchronise in simulation.

Bandwidth scenario: with ``bandwidth_limit > 0`` every client gets a
deterministic per-run uplink budget — the limit scaled by a multiplier drawn
from ``spawn_rng(seed, "bandwidth", client_id)`` — so some clients are
structurally slow.  An over-budget upload frame is *dropped* when
``drop_stragglers=True`` (it never aggregates; the ledger still charged the
client's download) or *deferred* otherwise (it arrives with the next round's
uploads and aggregates late; deferred frames left over at a task boundary
expire).  If a round would lose every upload, the smallest frame is
delivered anyway — a server that aggregates nothing is not a round.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.federated.communication import (
    ArrayCodec,
    ClientUpdate,
    CommunicationLedger,
    FrameRecord,
    IdentityCodec,
    PayloadCodec,
    RoundCommRecord,
    TreePayloadCodec,
    WireFrame,
    decode_frame,
    encode_frame,
)
from repro.federated.server import BroadcastHandle, FederatedServer
from repro.utils.rng import spawn_rng

_STATE_PREFIX = "s::"
_PAYLOAD_PREFIX = "p::"


class TransportError(RuntimeError):
    """A frame-level transport failure, carrying the frame's coordinates.

    The bare ``ValueError`` the codecs raise on a malformed frame says
    nothing about *whose* frame failed *where*; retry and drop policies (and
    the tests discriminating corruption from budget drops) need the
    coordinates, so every decode/verify failure surfaces as a subclass of
    this carrying ``(client_id, direction, task_id, round_index)``.
    """

    def __init__(
        self,
        message: str,
        *,
        client_id: Optional[int] = None,
        direction: Optional[str] = None,
        task_id: Optional[int] = None,
        round_index: Optional[Any] = None,
    ) -> None:
        context = ", ".join(
            f"{name}={value!r}"
            for name, value in (
                ("client_id", client_id),
                ("direction", direction),
                ("task_id", task_id),
                ("round_index", round_index),
            )
            if value is not None
        )
        super().__init__(f"{message} [{context}]" if context else message)
        self.client_id = client_id
        self.direction = direction
        self.task_id = task_id
        self.round_index = round_index


class FrameCorruptionError(TransportError):
    """A frame's body failed its checksum: corrupted in transit."""


class FrameDecodeError(TransportError):
    """A checksum-clean frame could not be decoded back into arrays."""


def verify_frame(
    frame: WireFrame,
    *,
    client_id: Optional[int] = None,
    direction: Optional[str] = None,
    task_id: Optional[int] = None,
    round_index: Optional[Any] = None,
) -> None:
    """Raise :class:`FrameCorruptionError` when the frame fails its checksum."""
    if not frame.checksum_ok():
        raise FrameCorruptionError(
            f"{frame.kind} frame failed its CRC32 checksum ({frame.num_bytes} bytes)",
            client_id=client_id,
            direction=direction,
            task_id=task_id,
            round_index=round_index,
        )


def _flatten_message(
    state: Dict[str, np.ndarray], payload: Any, payload_codec: PayloadCodec
) -> Tuple[Dict[str, np.ndarray], Any]:
    """Merge model state and payload arrays into one namespaced flat dict."""
    payload_arrays, skeleton = payload_codec.flatten(payload)
    arrays: Dict[str, np.ndarray] = {
        _STATE_PREFIX + key: value for key, value in state.items()
    }
    for name, value in payload_arrays.items():
        arrays[_PAYLOAD_PREFIX + name] = value
    return arrays, skeleton


def _split_message(
    arrays: Dict[str, np.ndarray], skeleton: Any, payload_codec: PayloadCodec
) -> Tuple[Dict[str, np.ndarray], Any]:
    """Inverse of :func:`_flatten_message`."""
    state = {
        key[len(_STATE_PREFIX):]: value
        for key, value in arrays.items()
        if key.startswith(_STATE_PREFIX)
    }
    payload_arrays = {
        key[len(_PAYLOAD_PREFIX):]: value
        for key, value in arrays.items()
        if key.startswith(_PAYLOAD_PREFIX)
    }
    return state, payload_codec.unflatten(payload_arrays, skeleton)


@dataclass
class _PendingRound:
    """Everything :meth:`Transport.collect_updates` needs from broadcast time."""

    task_id: int
    round_index: int
    selected: Tuple[int, ...]
    broadcast_frames: List[FrameRecord]
    #: The flat (namespaced) arrays the selected clients received this round —
    #: the uplink reference for diff-style codecs and the next downlink ack.
    received: Dict[str, np.ndarray]


@dataclass
class _DeferredUpload:
    """An over-budget upload in flight to the next round's aggregation."""

    update: ClientUpdate
    num_bytes: int


class Transport:
    """In-process wire transport: encode, measure, decode every message."""

    def __init__(
        self,
        ledger: CommunicationLedger,
        codec: ArrayCodec,
        payload_codec: Optional[PayloadCodec] = None,
        seed: int = 0,
        bandwidth_limit: int = 0,
        drop_stragglers: bool = False,
        retries: int = 2,
        retry_backoff: float = 0.5,
        faults=None,
    ) -> None:
        self.ledger = ledger
        #: Per-client measured frame lengths of the most recent broadcast /
        #: upload cycle.  The temporal plane's cost model reads these to turn
        #: each client's traffic into simulated transfer time:
        #: ``last_broadcast_bytes`` is (re)written by every
        #: :meth:`broadcast_round`, ``last_upload_bytes`` by every
        #: :meth:`collect_updates` (covering the updates handed to that call,
        #: including any the bandwidth scenario then dropped or deferred —
        #: the client paid for the transfer either way).
        self.last_broadcast_bytes: Dict[int, int] = {}
        self.last_upload_bytes: Dict[int, int] = {}
        #: Per-client simulated seconds of retry backoff accumulated in the
        #: most recent :meth:`collect_updates` — zero everywhere unless the
        #: fault plane lost or corrupted attempts.  The temporal plane adds
        #: these to the client's cycle cost.
        self.last_penalty_seconds: Dict[int, float] = {}
        self.codec = codec
        # Sparsifying a full-model broadcast against nothing would destroy
        # it; non-broadcast-safe codecs (topk) ride identity frames downlink
        # and only sparsify the uplink.
        self.down_codec = codec if codec.broadcast_safe else IdentityCodec()
        self.payload_codec = payload_codec if payload_codec is not None else TreePayloadCodec()
        self.seed = seed
        self.bandwidth_limit = bandwidth_limit
        self.drop_stragglers = drop_stragglers
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        self.retries = retries
        self.retry_backoff = retry_backoff
        #: Optional :class:`~repro.federated.faults.FaultInjector` deciding
        #: which transmission attempts are lost or corrupted; ``None`` (the
        #: default) keeps the upload path free of fault draws entirely.
        self.faults = faults
        self._ack: Dict[int, Dict[str, np.ndarray]] = {}
        self._budgets: Dict[int, int] = {}
        self._pending: Optional[_PendingRound] = None
        self._deferred: List[_DeferredUpload] = []
        self._last_task_id: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Bandwidth scenario
    # ------------------------------------------------------------------ #
    def budget_for(self, client_id: int) -> Optional[int]:
        """The client's deterministic per-round uplink byte budget (None = unlimited)."""
        if self.bandwidth_limit <= 0:
            return None
        if client_id not in self._budgets:
            multiplier = spawn_rng(self.seed, "bandwidth", client_id).uniform(0.6, 1.4)
            self._budgets[client_id] = max(1, int(self.bandwidth_limit * multiplier))
        return self._budgets[client_id]

    # ------------------------------------------------------------------ #
    # Downlink
    # ------------------------------------------------------------------ #
    def broadcast_round(
        self,
        server: FederatedServer,
        selected: Sequence[int],
        task_id: int,
        round_index: int,
    ) -> BroadcastHandle:
        """Deliver the round's broadcast; returns the handle clients train from."""
        if self._pending is not None:
            raise RuntimeError(
                "broadcast_round called with a round still pending; "
                "collect_updates must consume the previous round first"
            )
        if self._last_task_id is not None and task_id != self._last_task_id and self._deferred:
            # Deferred uploads do not survive a task boundary: the domain (and
            # the aggregation they would join) has moved on.
            self.ledger.record_expired_uploads(len(self._deferred))
            self._deferred.clear()
        self._last_task_id = task_id

        handle = server.broadcast_view()
        flat, skeleton = _flatten_message(handle.state, handle.payload, self.payload_codec)

        frames: List[FrameRecord] = []
        decoded_handle: Optional[BroadcastHandle] = None
        received: Optional[Dict[str, np.ndarray]] = None
        if isinstance(self.down_codec, IdentityCodec):
            # The identity frame body IS the handle's cached serialization —
            # the exact blob the parallel executor ships to its workers, so
            # ledger and RoundIPC observe the same bytes — and its round-trip
            # is a pickle cycle, so the decode is short-circuited to the
            # server's own handle (bit-for-bit by construction).
            body = handle.serialized()
            frames.extend(FrameRecord(cid, len(body)) for cid in selected)
            decoded_handle = handle
            received = flat
        else:
            # Group clients by the reference they hold: one frame per distinct
            # acknowledgement (codecs that ignore the reference form a single
            # group).  Lossless diff codecs decode to identical content for
            # every group, so one decode serves the whole round.
            groups: Dict[int, Tuple[Optional[Dict[str, np.ndarray]], List[int]]] = {}
            for cid in selected:
                ref = self._ack.get(cid) if self.down_codec.uses_reference else None
                key = id(ref) if ref is not None else 0
                groups.setdefault(key, (ref, []))[1].append(cid)
            for ref, members in groups.values():
                frame = encode_frame("broadcast", self.down_codec, flat, skeleton, ref)
                frames.extend(FrameRecord(cid, frame.num_bytes) for cid in members)
                if decoded_handle is None:
                    verify_frame(
                        frame,
                        client_id=members[0],
                        direction="broadcast",
                        task_id=task_id,
                        round_index=round_index,
                    )
                    arrays, meta = self._decode_frame_checked(
                        frame,
                        self.down_codec,
                        ref,
                        client_id=members[0],
                        direction="broadcast",
                        task_id=task_id,
                        round_index=round_index,
                    )
                    state, payload = _split_message(arrays, meta, self.payload_codec)
                    decoded_handle = BroadcastHandle(state, payload)
                    received = arrays
        frames.sort(key=lambda record: record.client_id)
        self.last_broadcast_bytes = {
            record.client_id: record.num_bytes for record in frames
        }

        for cid in selected:
            self._ack[cid] = received
        self._pending = _PendingRound(
            task_id=task_id,
            round_index=round_index,
            selected=tuple(selected),
            broadcast_frames=frames,
            received=received,
        )
        return decoded_handle

    # ------------------------------------------------------------------ #
    # Uplink
    # ------------------------------------------------------------------ #
    def _encode_update(
        self, update: ClientUpdate, reference: Dict[str, np.ndarray]
    ) -> WireFrame:
        arrays, skeleton = _flatten_message(
            update.state_dict, update.payload, self.payload_codec
        )
        meta = {
            "client_id": update.client_id,
            "num_samples": update.num_samples,
            "train_loss": update.train_loss,
            "metrics": update.metrics,
            "skeleton": skeleton,
        }
        return encode_frame("upload", self.codec, arrays, meta, reference)

    @staticmethod
    def _decode_frame_checked(
        frame: WireFrame,
        codec: ArrayCodec,
        reference: Optional[Dict[str, np.ndarray]],
        *,
        client_id: Optional[int],
        direction: str,
        task_id: Optional[int],
        round_index: Optional[Any],
    ) -> Tuple[Dict[str, np.ndarray], Any]:
        """Decode a frame, converting codec failures into typed transport errors."""
        try:
            return decode_frame(frame, codec, reference)
        except (ValueError, KeyError, EOFError, pickle.UnpicklingError) as error:
            raise FrameDecodeError(
                f"failed to decode {frame.kind} frame ({frame.num_bytes} bytes, "
                f"codec {frame.codec!r}): {error}",
                client_id=client_id,
                direction=direction,
                task_id=task_id,
                round_index=round_index,
            ) from error

    def _decode_update(
        self,
        frame: WireFrame,
        reference: Dict[str, np.ndarray],
        *,
        task_id: Optional[int] = None,
        round_index: Optional[Any] = None,
        client_id: Optional[int] = None,
    ) -> ClientUpdate:
        arrays, meta = self._decode_frame_checked(
            frame,
            self.codec,
            reference,
            client_id=client_id,
            direction="upload",
            task_id=task_id,
            round_index=round_index,
        )
        state, payload = _split_message(arrays, meta["skeleton"], self.payload_codec)
        return ClientUpdate(
            client_id=meta["client_id"],
            state_dict=state,
            num_samples=meta["num_samples"],
            payload=payload,
            train_loss=meta["train_loss"],
            metrics=meta["metrics"],
        )

    def _transmit(
        self, client_id: int, frame: WireFrame, pending: _PendingRound
    ) -> Tuple[int, float, List[FrameRecord], bool]:
        """Carry one upload frame across the faulty wire with bounded retries.

        Returns ``(attempts, penalty_seconds, failed_attempt_records,
        arrived)``.  Each attempt may be lost outright or corrupted (the
        checksum rejects it); between failed attempts the client backs off
        ``retry_backoff * 2**(attempt-1)`` simulated seconds.  At most
        ``retries + 1`` attempts are made — the property tests' bound.
        Without an injector (or with both frame-fault rates zero) this is a
        single successful attempt with zero draws and zero penalty.
        """
        injector = self.faults
        if injector is None or (
            injector.spec.upload_loss_rate <= 0.0
            and injector.spec.upload_corruption_rate <= 0.0
        ):
            return 1, 0.0, [], True
        task_id, round_index = pending.task_id, pending.round_index
        records: List[FrameRecord] = []
        penalty = 0.0
        max_attempts = self.retries + 1
        for attempt in range(1, max_attempts + 1):
            lost = injector.upload_lost(task_id, round_index, client_id, attempt)
            if not lost:
                attempt_frame = frame
                if injector.upload_corrupted(task_id, round_index, client_id, attempt):
                    attempt_frame = injector.corrupt_frame(
                        frame, task_id, round_index, client_id, attempt
                    )
                try:
                    verify_frame(
                        attempt_frame,
                        client_id=client_id,
                        direction="upload",
                        task_id=task_id,
                        round_index=round_index,
                    )
                except FrameCorruptionError:
                    pass
                else:
                    return attempt, penalty, records, True
            records.append(
                FrameRecord(client_id, frame.num_bytes, "lost" if lost else "corrupt")
            )
            if attempt < max_attempts:
                penalty += self.retry_backoff * (2.0 ** (attempt - 1))
        return max_attempts, penalty, records, False

    def collect_updates(self, updates: List[ClientUpdate]) -> List[ClientUpdate]:
        """Deliver the round's uploads; returns the updates that reach aggregation."""
        if self._pending is None:
            raise RuntimeError("collect_updates called before broadcast_round")
        pending = self._pending
        self._pending = None
        identity = isinstance(self.codec, IdentityCodec)

        def received(update: ClientUpdate, frame: WireFrame) -> ClientUpdate:
            # The identity round-trip is the pickle the executor already
            # performed, so the server keeps the client's own object.
            if identity:
                return update
            return self._decode_update(
                frame,
                pending.received,
                task_id=pending.task_id,
                round_index=pending.round_index,
                client_id=update.client_id,
            )

        delivered: List[ClientUpdate] = []
        frames: List[FrameRecord] = []
        over_budget: List[Tuple[ClientUpdate, WireFrame]] = []
        self.last_upload_bytes = {}
        self.last_penalty_seconds = {}
        for update in updates:
            frame = self._encode_update(update, pending.received)
            self.last_upload_bytes[update.client_id] = frame.num_bytes
            budget = self.budget_for(update.client_id)
            if budget is not None and frame.num_bytes > budget:
                over_budget.append((update, frame))
                continue
            attempts, penalty, attempt_records, arrived = self._transmit(
                update.client_id, frame, pending
            )
            frames.extend(attempt_records)
            if attempts > 1:
                # Every attempt crossed the wire; the client paid for all of
                # them (and for the backoff waits between them).
                self.last_upload_bytes[update.client_id] = frame.num_bytes * attempts
                self.last_penalty_seconds[update.client_id] = penalty
            if not arrived:
                # Retries exhausted: the update is a straggler under the
                # existing drop/defer rules — the in-process copy of the
                # frame is intact, so a deferral re-requests it next round.
                if self.drop_stragglers:
                    frames.append(FrameRecord(update.client_id, frame.num_bytes, "dropped"))
                else:
                    self._deferred.append(
                        _DeferredUpload(received(update, frame), frame.num_bytes)
                    )
                continue
            frames.append(FrameRecord(update.client_id, frame.num_bytes))
            delivered.append(received(update, frame))

        # Last round's deferred stragglers arrive with this round's uploads.
        arrivals = [item for item in self._deferred]
        self._deferred.clear()
        for item in arrivals:
            frames.append(FrameRecord(item.update.client_id, item.num_bytes, "deferred"))
            delivered.append(item.update)

        if not delivered and over_budget:
            # Keep-one rule: a round must aggregate something.  Deliver the
            # smallest over-budget frame (deterministic tiebreak by id).
            over_budget.sort(key=lambda pair: (pair[1].num_bytes, pair[0].client_id))
            update, frame = over_budget.pop(0)
            frames.append(FrameRecord(update.client_id, frame.num_bytes))
            delivered.insert(0, received(update, frame))
        for update, frame in over_budget:
            if self.drop_stragglers:
                frames.append(FrameRecord(update.client_id, frame.num_bytes, "dropped"))
            else:
                self._deferred.append(_DeferredUpload(received(update, frame), frame.num_bytes))

        frames.sort(key=lambda record: (record.status != "ok", record.client_id))
        self.ledger.record_measured_round(
            RoundCommRecord(
                task_id=pending.task_id,
                round_index=pending.round_index,
                codec=self.codec.name,
                broadcast_frames=tuple(pending.broadcast_frames),
                upload_frames=tuple(frames),
            )
        )
        return delivered

    def finalize(self) -> None:
        """Expire deferred uploads still in flight when the run ends.

        Without this, an upload deferred in the very last round would vanish
        from the accounting entirely — neither delivered, dropped nor
        expired — and delivered + dropped + expired would no longer cover
        every encoded upload.
        """
        if self._deferred:
            self.ledger.record_expired_uploads(len(self._deferred))
            self._deferred.clear()

    def restart(self) -> None:
        """Simulate a server process restart mid-run.

        The protocol soft state dies with the process: delta acknowledgements
        are forgotten (the next broadcast to every client goes dense — the
        recovery cost the bench measures) and deferred uploads still in the
        restarting server's memory expire.  The model, ledger and method are
        the *simulation's* durable state and survive outside the transport.
        """
        if self._pending is not None:
            raise RuntimeError("cannot restart the server with a round in flight")
        self._ack.clear()
        if self._deferred:
            self.ledger.record_expired_uploads(len(self._deferred))
            self._deferred.clear()

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the transport's session state for a checkpoint."""
        if self._pending is not None:
            raise RuntimeError("cannot snapshot a transport with a round in flight")
        return {
            "last_broadcast_bytes": dict(self.last_broadcast_bytes),
            "last_upload_bytes": dict(self.last_upload_bytes),
            "last_penalty_seconds": dict(self.last_penalty_seconds),
            "ack": self._ack,
            "budgets": dict(self._budgets),
            "deferred": list(self._deferred),
            "last_task_id": self._last_task_id,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.last_broadcast_bytes = dict(state["last_broadcast_bytes"])
        self.last_upload_bytes = dict(state["last_upload_bytes"])
        self.last_penalty_seconds = dict(state["last_penalty_seconds"])
        self._ack = dict(state["ack"])
        self._budgets = dict(state["budgets"])
        self._deferred = list(state["deferred"])
        self._last_task_id = state["last_task_id"]
        self._pending = None


__all__ = [
    "Transport",
    "TransportError",
    "FrameCorruptionError",
    "FrameDecodeError",
    "verify_frame",
]
