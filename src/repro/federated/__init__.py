"""Federated-learning substrate.

This subpackage provides everything the paper's Algorithm 1 needs around the
learning method itself: FedAvg aggregation weighted by local dataset size,
per-round random client selection, the client-increment strategy that splits
participants into Old / In-between / New groups, simple communication
accounting, and the end-to-end federated domain-incremental simulation loop
that drives any :class:`repro.federated.method.FederatedMethod` (RefFiL or a
baseline) over a continual scenario.
"""

from repro.federated.aggregation import (
    FlatReduceBackend,
    ReduceBackend,
    TreeReduceBackend,
    blend_states,
    build_reduce_backend,
    fedavg,
    staleness_weight,
    weighted_average_arrays,
)
from repro.federated.sampling import NoAvailableClientsError, sample_clients, sample_clients_lazy
from repro.federated.clock import (
    CostModel,
    DeviceProfile,
    Event,
    EventScheduler,
    PROFILE_TIERS,
    ProfileCache,
    build_profile,
)
from repro.federated.async_plane import ASYNC_MIXING, TemporalPlaneRunner
from repro.federated.increment import (
    ClientGroup,
    ClientIncrementSchedule,
    ClientIncrementConfig,
    TaskAssignment,
)
from repro.federated.communication import (
    ArrayCodec,
    ClientUpdate,
    CommunicationLedger,
    FrameRecord,
    PayloadCodec,
    RoundCommRecord,
    TreePayloadCodec,
    WireFrame,
    build_codec,
    codec_is_lossless,
)
from repro.federated.client import (
    ClientHandle,
    LocalTrainingConfig,
    NonFiniteLossError,
    ShardRef,
    VirtualClientSpec,
    run_local_sgd,
)
from repro.federated.virtual import VirtualClientPlane
from repro.federated.server import BroadcastHandle, FederatedServer
from repro.federated.transport import (
    FrameCorruptionError,
    FrameDecodeError,
    Transport,
    TransportError,
    verify_frame,
)
from repro.federated.faults import FaultInjector, FaultSpec
from repro.federated.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
    checkpoint_name,
    config_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    parse_checkpoint_name,
    save_checkpoint,
    simulation_state_hash,
)
from repro.federated.method import FederatedMethod
from repro.federated.config import FederatedConfig
from repro.federated.execution import (
    EvalIPC,
    EvalJob,
    EvalSliceRef,
    Executor,
    ParallelEvalBackend,
    ParallelExecutor,
    RoundIPC,
    SerialExecutor,
    WorkerDiedError,
    batch_aligned_slices,
    build_executor,
)
from repro.federated.simulation import FederatedDomainIncrementalSimulation, SimulationResult

__all__ = [
    "fedavg",
    "blend_states",
    "staleness_weight",
    "weighted_average_arrays",
    "ReduceBackend",
    "FlatReduceBackend",
    "TreeReduceBackend",
    "build_reduce_backend",
    "sample_clients",
    "sample_clients_lazy",
    "NoAvailableClientsError",
    "CostModel",
    "DeviceProfile",
    "Event",
    "EventScheduler",
    "PROFILE_TIERS",
    "ProfileCache",
    "build_profile",
    "ASYNC_MIXING",
    "TemporalPlaneRunner",
    "ClientGroup",
    "ClientIncrementSchedule",
    "ClientIncrementConfig",
    "TaskAssignment",
    "ClientUpdate",
    "CommunicationLedger",
    "ArrayCodec",
    "FrameRecord",
    "PayloadCodec",
    "RoundCommRecord",
    "TreePayloadCodec",
    "WireFrame",
    "build_codec",
    "codec_is_lossless",
    "Transport",
    "TransportError",
    "FrameCorruptionError",
    "FrameDecodeError",
    "verify_frame",
    "FaultSpec",
    "FaultInjector",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointMismatchError",
    "checkpoint_name",
    "parse_checkpoint_name",
    "latest_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "config_fingerprint",
    "simulation_state_hash",
    "ClientHandle",
    "LocalTrainingConfig",
    "NonFiniteLossError",
    "ShardRef",
    "VirtualClientSpec",
    "VirtualClientPlane",
    "run_local_sgd",
    "BroadcastHandle",
    "FederatedServer",
    "FederatedMethod",
    "FederatedConfig",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ParallelEvalBackend",
    "RoundIPC",
    "EvalIPC",
    "EvalJob",
    "EvalSliceRef",
    "WorkerDiedError",
    "batch_aligned_slices",
    "build_executor",
    "FederatedDomainIncrementalSimulation",
    "SimulationResult",
]
