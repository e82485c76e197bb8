"""Wire-format primitives of the communication plane: frames, codecs, ledger.

RefFiL's pitch includes being deployable on "privacy-sensitive and
resource-constrained devices", so communication volume is a first-class
quantity here — not an ``nbytes`` estimate but the length of the encoded
frame that would actually cross the wire.  The pieces fit together like
this (the transport in :mod:`repro.federated.transport` drives them):

* a :class:`WireFrame` is one encoded message (server→client broadcast or
  client→server upload); ``num_bytes`` is its measured size;
* an :class:`ArrayCodec` turns a flat ``name -> ndarray`` dict into the
  frame body and back — ``identity`` (raw pickle, today's semantics),
  ``delta`` (sparse lossless diff against a reference), ``quantize8`` /
  ``quantize16`` (uniform per-tensor quantization) and ``topk``
  (magnitude sparsification of the diff, upload-only);
* a :class:`PayloadCodec` flattens a method's structured payload (e.g.
  RefFiL's per-class prompt groups) into named arrays so the array codec
  applies to prompts exactly as it does to model weights, instead of the
  payload riding as an opaque pickled dict;
* the :class:`CommunicationLedger` accumulates per-round, per-client,
  per-direction measured frame sizes (:class:`RoundCommRecord`).

Lossless codecs (``identity``, ``delta``) round-trip every array
bit-exactly — the property-test suite enforces it over all dtypes and
shapes — so simulations run through either produce identical accuracy
matrices.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

# --------------------------------------------------------------------------- #
# Client update (what a client uploads each round)
# --------------------------------------------------------------------------- #


@dataclass
class ClientUpdate:
    """Everything a selected client uploads at the end of a round.

    Attributes
    ----------
    client_id:
        The uploading client.
    state_dict:
        The locally trained model parameters.
    num_samples:
        Size of the client's local training set (the FedAvg weight).
    payload:
        Method-specific extras; RefFiL puts its per-class averaged local
        prompt group (``LPG_m``) here, baselines leave it empty.
    train_loss:
        Mean local training loss (for logging / convergence monitoring).
    metrics:
        Optional per-component loss breakdown (e.g. RefFiL's ``loss_ce`` /
        ``loss_gpl`` / ``loss_dpcl`` terms of Eq. 14, keyed for the Table VII
        ablation).  Logging-only: not counted as communication volume.
    """

    client_id: int
    state_dict: Dict[str, np.ndarray]
    num_samples: int
    payload: Dict[str, Any] = field(default_factory=dict)
    train_loss: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Wire frames
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WireFrame:
    """One encoded message of the communication plane.

    ``body`` is the serialized payload as it would cross the wire; the
    ledger's numbers are ``len(body)`` — measured, not estimated.  ``kind``
    and ``codec`` are bookkeeping for the simulation side and are not
    counted (a real protocol would fold them into a fixed-size header, which
    is also where ``checksum`` — the CRC32 of ``body`` used by the fault
    plane's corruption detection — would live).
    """

    kind: str  # "broadcast" | "upload"
    codec: str
    body: bytes
    checksum: Optional[int] = None

    @property
    def num_bytes(self) -> int:
        return len(self.body)

    def checksum_ok(self) -> bool:
        """True when the body matches its checksum (or no checksum was recorded)."""
        return self.checksum is None or zlib.crc32(self.body) == self.checksum


def encode_frame(
    kind: str,
    codec: "ArrayCodec",
    arrays: Dict[str, np.ndarray],
    meta: Any,
    reference: Optional[Dict[str, np.ndarray]] = None,
) -> WireFrame:
    """Encode a flat array dict (plus picklable metadata) into one frame."""
    plan = codec.encode(arrays, reference)
    body = pickle.dumps((meta, plan), protocol=pickle.HIGHEST_PROTOCOL)
    return WireFrame(kind=kind, codec=codec.name, body=body, checksum=zlib.crc32(body))


def decode_frame(
    frame: WireFrame,
    codec: "ArrayCodec",
    reference: Optional[Dict[str, np.ndarray]] = None,
) -> Tuple[Dict[str, np.ndarray], Any]:
    """Inverse of :func:`encode_frame`: returns ``(arrays, meta)``."""
    meta, plan = pickle.loads(frame.body)
    return codec.decode(plan, reference), meta


# --------------------------------------------------------------------------- #
# Array codecs
# --------------------------------------------------------------------------- #


class ArrayCodec:
    """Strategy turning a flat ``name -> ndarray`` dict into frame bodies.

    ``encode`` produces a picklable *plan* (the frame body is its pickle);
    ``decode`` inverts it.  ``reference`` is the receiver's copy of the last
    message it acknowledged — codecs with ``uses_reference`` encode against
    it (and the decoder must be handed the *same* reference).  Codecs with
    ``lossless`` round-trip bit-exactly; lossy codecs preserve shape and
    dtype but not values.  ``broadcast_safe`` marks codecs usable on the
    server→client direction: sparsifying a *full model broadcast* against
    nothing would destroy it, so ``topk`` is upload-only and the transport falls
    back to ``identity`` frames downlink.
    """

    name: str = "abstract"
    lossless: bool = False
    uses_reference: bool = False
    broadcast_safe: bool = True

    def encode(
        self, arrays: Dict[str, np.ndarray], reference: Optional[Dict[str, np.ndarray]] = None
    ) -> Any:
        raise NotImplementedError

    def decode(
        self, plan: Any, reference: Optional[Dict[str, np.ndarray]] = None
    ) -> Dict[str, np.ndarray]:
        raise NotImplementedError


class IdentityCodec(ArrayCodec):
    """Raw pickle of the arrays — today's semantics, bit-exact by construction."""

    name = "identity"
    lossless = True

    def encode(self, arrays, reference=None):
        return {key: np.asarray(value) for key, value in arrays.items()}

    def decode(self, plan, reference=None):
        return {key: np.asarray(value) for key, value in plan.items()}


def _compatible(reference: Optional[Dict[str, np.ndarray]], key: str, value: np.ndarray):
    """The reference array a diff-style codec may encode ``key`` against, if any."""
    if reference is None:
        return None
    base = reference.get(key)
    if base is None:
        return None
    base = np.asarray(base)
    if base.shape != value.shape or base.dtype != value.dtype:
        return None
    return base


def _index_dtype(size: int) -> np.dtype:
    return np.dtype(np.int32) if size < 2**31 else np.dtype(np.int64)


class DeltaCodec(ArrayCodec):
    """Lossless sparse diff against the last acknowledged message.

    Per array: ``same`` when nothing changed, a ``(indices, values)`` pair of
    the changed positions when few changed, and a dense fallback when the
    reference is missing/incompatible or when more than half the elements
    changed (indices would cost more than the array).  Changed values are
    shipped verbatim — NaNs compare unequal to themselves, so they always
    ship and the round-trip stays bit-exact.
    """

    name = "delta"
    lossless = True
    uses_reference = True
    _DENSE_FRACTION = 0.5

    def encode(self, arrays, reference=None):
        plan: Dict[str, tuple] = {}
        for key, value in arrays.items():
            value = np.asarray(value)
            base = _compatible(reference, key, value)
            if base is None or value.size == 0:
                plan[key] = ("dense", value)
                continue
            flat_new = value.reshape(-1)
            flat_old = base.reshape(-1)
            changed = np.flatnonzero(~(flat_new == flat_old))
            if changed.size == 0:
                plan[key] = ("same",)
            elif changed.size > self._DENSE_FRACTION * value.size:
                plan[key] = ("dense", value)
            else:
                indices = changed.astype(_index_dtype(value.size))
                plan[key] = ("sparse", value.shape, indices, flat_new[changed].copy())
        return plan

    def decode(self, plan, reference=None):
        arrays: Dict[str, np.ndarray] = {}
        for key, record in plan.items():
            mode = record[0]
            if mode == "dense":
                arrays[key] = np.asarray(record[1])
            elif mode == "same":
                if reference is None or key not in reference:
                    raise ValueError(
                        f"delta frame marks {key!r} unchanged but the decoder has no reference"
                    )
                arrays[key] = np.array(reference[key], copy=True)
            else:  # sparse
                _, shape, indices, values = record
                if reference is None or key not in reference:
                    raise ValueError(
                        f"delta frame is sparse for {key!r} but the decoder has no reference"
                    )
                flat = np.array(reference[key], copy=True).reshape(-1)
                flat[indices] = values
                arrays[key] = flat.reshape(shape)
        return arrays


class QuantizeCodec(ArrayCodec):
    """Uniform per-tensor quantization of float arrays to ``bits``-bit integers.

    Each float array ships as ``(lo, scale, integer codes)``; non-float
    arrays (labels, counters, masks) and arrays containing non-finite values
    ship dense — quantizing a NaN/inf range is meaningless.  Decoding maps
    codes back to ``lo + code * scale`` in the original dtype, so shapes and
    dtypes are preserved while values lose precision (the accuracy delta the
    bench reports).
    """

    lossless = False

    def __init__(self, bits: int) -> None:
        if bits not in (8, 16):
            raise ValueError(f"quantization supports 8 or 16 bits, got {bits}")
        self.bits = bits
        self.name = f"quantize{bits}"
        self._qdtype = np.uint8 if bits == 8 else np.uint16
        self._levels = (1 << bits) - 1

    def encode(self, arrays, reference=None):
        plan: Dict[str, tuple] = {}
        for key, value in arrays.items():
            value = np.asarray(value)
            if value.dtype.kind != "f" or value.size == 0 or not np.isfinite(value).all():
                plan[key] = ("dense", value)
                continue
            lo = float(value.min())
            hi = float(value.max())
            if hi == lo:
                plan[key] = ("const", str(value.dtype), value.shape, lo)
                continue
            scale = (hi - lo) / self._levels
            codes = np.rint((value - lo) / scale).astype(self._qdtype)
            plan[key] = ("q", str(value.dtype), value.shape, lo, scale, codes)
        return plan

    def decode(self, plan, reference=None):
        arrays: Dict[str, np.ndarray] = {}
        for key, record in plan.items():
            mode = record[0]
            if mode == "dense":
                arrays[key] = np.asarray(record[1])
            elif mode == "const":
                _, dtype, shape, lo = record
                arrays[key] = np.full(shape, lo, dtype=np.dtype(dtype))
            else:
                _, dtype, shape, lo, scale, codes = record
                arrays[key] = (lo + codes.astype(np.float64) * scale).astype(
                    np.dtype(dtype)
                ).reshape(shape)
        return arrays


class TopKCodec(ArrayCodec):
    """Magnitude sparsification of the diff against the reference (upload-only).

    Keeps the ``fraction`` of positions whose change from the reference is
    largest in magnitude and ships their *exact new values*; the receiver
    keeps its reference values everywhere else.  Without a reference (or for
    non-float arrays) the array ships dense — sparsifying a message the
    receiver has no base for would destroy it, which is also why the codec
    is not ``broadcast_safe``: the transport sends full ``identity`` frames
    downlink and sparsify only the uplink, as gradient-sparsification
    systems do.
    """

    name = "topk"
    lossless = False
    uses_reference = True
    broadcast_safe = False

    def __init__(self, fraction: float = 0.1) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"topk fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction
        self.name = "topk" if fraction == 0.1 else f"topk:{fraction:g}"

    def encode(self, arrays, reference=None):
        plan: Dict[str, tuple] = {}
        for key, value in arrays.items():
            value = np.asarray(value)
            base = _compatible(reference, key, value)
            if base is None or value.dtype.kind != "f" or value.size == 0:
                plan[key] = ("dense", value)
                continue
            flat_new = value.reshape(-1)
            diff = flat_new - base.reshape(-1)
            k = max(1, int(np.ceil(self.fraction * value.size)))
            if k >= value.size:
                plan[key] = ("dense", value)
                continue
            kept = np.argpartition(np.abs(diff), value.size - k)[-k:]
            kept.sort()
            indices = kept.astype(_index_dtype(value.size))
            plan[key] = ("sparse", value.shape, indices, flat_new[kept].copy())
        return plan

    def decode(self, plan, reference=None):
        arrays: Dict[str, np.ndarray] = {}
        for key, record in plan.items():
            if record[0] == "dense":
                arrays[key] = np.asarray(record[1])
            else:
                _, shape, indices, values = record
                if reference is None or key not in reference:
                    raise ValueError(
                        f"topk frame is sparse for {key!r} but the decoder has no reference"
                    )
                flat = np.array(reference[key], copy=True).reshape(-1)
                flat[indices] = values
                arrays[key] = flat.reshape(shape)
        return arrays


#: Canonical codec names accepted by :func:`build_codec` (``topk`` also takes
#: an optional fraction suffix, e.g. ``"topk:0.05"``).
CODEC_NAMES = ("identity", "delta", "quantize8", "quantize16", "topk")


def build_codec(spec: str) -> ArrayCodec:
    """Construct an :class:`ArrayCodec` from its config-string spec."""
    if spec == "identity":
        return IdentityCodec()
    if spec == "delta":
        return DeltaCodec()
    if spec == "quantize8":
        return QuantizeCodec(8)
    if spec == "quantize16":
        return QuantizeCodec(16)
    if spec == "topk" or spec.startswith("topk:"):
        fraction = 0.1
        if spec.startswith("topk:"):
            try:
                fraction = float(spec.split(":", 1)[1])
            except ValueError as error:
                raise ValueError(f"invalid topk fraction in codec spec {spec!r}") from error
        return TopKCodec(fraction)
    raise ValueError(f"unknown codec {spec!r}; choose from {', '.join(CODEC_NAMES)}")


def codec_is_lossless(spec: str) -> bool:
    """True when runs through this codec reproduce ``identity`` numbers bit-for-bit."""
    return build_codec(spec).lossless


# --------------------------------------------------------------------------- #
# Payload codecs (method payloads -> named arrays)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _ArraySlot:
    """Placeholder left in a payload skeleton where an array was extracted."""

    name: str


class PayloadCodec:
    """Flattens a method payload into named arrays plus a structural skeleton.

    The arrays join the model state in the wire frame, so delta/quantize/topk
    apply to prompt payloads exactly as they do to weights; the skeleton (a
    small picklable tree) rides in the frame metadata.  ``unflatten`` must
    invert ``flatten`` exactly — the lossless-parity guarantee of the whole
    plane rests on it, and the property-test suite enforces it.
    """

    def flatten(self, payload: Any) -> Tuple[Dict[str, np.ndarray], Any]:
        raise NotImplementedError

    def unflatten(self, arrays: Dict[str, np.ndarray], skeleton: Any) -> Any:
        raise NotImplementedError


class TreePayloadCodec(PayloadCodec):
    """Generic payload codec: walk the dict/list/tuple tree, pull out arrays.

    Array leaves are replaced by :class:`_ArraySlot` markers named after
    their path (dict keys by ``repr`` so ``0`` and ``"0"`` cannot collide);
    every other leaf stays in the skeleton and round-trips through pickle.
    """

    def flatten(self, payload):
        arrays: Dict[str, np.ndarray] = {}

        def walk(node: Any, path: str) -> Any:
            if isinstance(node, np.ndarray):
                arrays[path] = node
                return _ArraySlot(path)
            if isinstance(node, dict):
                return {
                    key: walk(value, f"{path}/k:{key!r}") for key, value in node.items()
                }
            if isinstance(node, tuple) and hasattr(node, "_fields"):  # namedtuple
                return type(node)(
                    *(walk(value, f"{path}/i:{i}") for i, value in enumerate(node))
                )
            if isinstance(node, (list, tuple)):
                return type(node)(
                    walk(value, f"{path}/i:{i}") for i, value in enumerate(node)
                )
            return node

        skeleton = walk(payload, "p")
        return arrays, skeleton

    def unflatten(self, arrays, skeleton):
        def rebuild(node: Any) -> Any:
            if isinstance(node, _ArraySlot):
                return np.asarray(arrays[node.name])
            if isinstance(node, dict):
                return {key: rebuild(value) for key, value in node.items()}
            if isinstance(node, tuple) and hasattr(node, "_fields"):
                return type(node)(*(rebuild(value) for value in node))
            if isinstance(node, (list, tuple)):
                return type(node)(rebuild(value) for value in node)
            return node

        return rebuild(skeleton)


# --------------------------------------------------------------------------- #
# Communication ledger
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FrameRecord:
    """One client's frame (or failed transmission attempt) in one round."""

    client_id: int
    num_bytes: int
    #: ``ok`` — delivered in its round; ``deferred`` — an over-budget upload
    #: that arrived a round late; ``dropped`` — an over-budget upload the
    #: straggler policy discarded (its bytes never count as delivered);
    #: ``lost`` — a transmission attempt the fault plane lost on the wire;
    #: ``corrupt`` — an attempt that arrived but failed its checksum.  Lost
    #: and corrupt attempts are per-attempt records: a retried upload leaves
    #: one failed record per failed attempt plus its final record.
    status: str = "ok"


@dataclass(frozen=True)
class RoundCommRecord:
    """Measured traffic of one communication round, per client and direction."""

    task_id: int
    round_index: int
    codec: str
    broadcast_frames: Tuple[FrameRecord, ...]
    upload_frames: Tuple[FrameRecord, ...]

    @property
    def broadcast_bytes(self) -> int:
        return sum(frame.num_bytes for frame in self.broadcast_frames)

    @property
    def upload_bytes(self) -> int:
        """Bytes of uploads that reached the server (failed attempts excluded)."""
        return sum(f.num_bytes for f in self.upload_frames if f.status in ("ok", "deferred"))

    @property
    def dropped_upload_bytes(self) -> int:
        return sum(f.num_bytes for f in self.upload_frames if f.status == "dropped")

    @property
    def failed_attempt_bytes(self) -> int:
        """Bytes of transmission attempts the fault plane lost or corrupted."""
        return sum(f.num_bytes for f in self.upload_frames if f.status in ("lost", "corrupt"))


@dataclass
class CommunicationLedger:
    """Accumulates per-round communication volume for a whole run.

    The transport feeds it through :meth:`record_measured_round`: per-client
    :class:`FrameRecord` sizes measured from actual encoded frames
    (``records`` keeps the detail).  Broadcast is charged per *selected*
    client, not per reporting client: a straggler that never uploads still
    received its download.
    """

    uploaded_bytes: int = 0
    broadcast_bytes: int = 0
    rounds: int = 0
    dropped_upload_bytes: int = 0
    dropped_uploads: int = 0
    deferred_uploads: int = 0
    expired_uploads: int = 0
    lost_frames: int = 0
    corrupt_frames: int = 0
    records: List[RoundCommRecord] = field(default_factory=list)
    #: Hierarchical-aggregation traffic: edge aggregators shipping weighted
    #: partial reduces up the tree (``reduce_backend="tree"``).  ``edge_bytes``
    #: counts every transmission attempt (a retried hop paid the wire twice);
    #: ``edge_frames`` counts delivered partials; the lost/corrupt counters
    #: count failed per-attempt records, mirroring the upload-frame fault
    #: accounting.  All zero under the flat star.
    edge_bytes: int = 0
    edge_frames: int = 0
    edge_lost_frames: int = 0
    edge_corrupt_frames: int = 0

    def record_measured_round(self, record: RoundCommRecord) -> None:
        """Account one round from measured wire-frame lengths."""
        self.uploaded_bytes += record.upload_bytes
        self.broadcast_bytes += record.broadcast_bytes
        self.dropped_upload_bytes += record.dropped_upload_bytes
        self.dropped_uploads += sum(1 for f in record.upload_frames if f.status == "dropped")
        self.deferred_uploads += sum(1 for f in record.upload_frames if f.status == "deferred")
        self.lost_frames += sum(1 for f in record.upload_frames if f.status == "lost")
        self.corrupt_frames += sum(1 for f in record.upload_frames if f.status == "corrupt")
        self.rounds += 1
        self.records.append(record)

    def record_expired_uploads(self, count: int) -> None:
        """Deferred uploads that never arrived (e.g. flushed at a task boundary)."""
        self.expired_uploads += count

    def record_edge_reduce(self, frames: List[FrameRecord]) -> None:
        """Account one tree reduce's edge→parent hops (all attempts)."""
        for frame in frames:
            self.edge_bytes += frame.num_bytes
            if frame.status == "ok":
                self.edge_frames += 1
            elif frame.status == "lost":
                self.edge_lost_frames += 1
            elif frame.status == "corrupt":
                self.edge_corrupt_frames += 1

    @property
    def total_bytes(self) -> int:
        return self.uploaded_bytes + self.broadcast_bytes + self.edge_bytes


__all__ = [
    "ClientUpdate",
    "CommunicationLedger",
    "FrameRecord",
    "RoundCommRecord",
    "WireFrame",
    "ArrayCodec",
    "IdentityCodec",
    "DeltaCodec",
    "QuantizeCodec",
    "TopKCodec",
    "CODEC_NAMES",
    "build_codec",
    "codec_is_lossless",
    "encode_frame",
    "decode_frame",
    "PayloadCodec",
    "TreePayloadCodec",
]
