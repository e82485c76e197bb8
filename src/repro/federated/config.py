"""Configuration of a federated domain-incremental run."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.autograd.tape import KERNELS
from repro.federated.client import LocalTrainingConfig
from repro.federated.clock import PROFILE_TIERS
from repro.federated.communication import build_codec
from repro.federated.faults import FaultSpec
from repro.federated.increment import ClientIncrementConfig


#: ``dataclasses.field`` metadata key marking a trajectory-free knob.
TRAJECTORY_FREE = "trajectory_free"


def _trajectory_free(default):
    """Declare a knob that never changes the trained state or the checkpoint."""
    return field(default=default, metadata={TRAJECTORY_FREE: True})


@dataclass(frozen=True)
class FederatedConfig:
    """Everything the simulation loop needs besides the method and the data.

    Attributes
    ----------
    increment:
        Client-population dynamics (initial clients, increment per task,
        transfer fraction).
    clients_per_round:
        How many of the active clients are selected each communication round
        (the paper's "10 initially selected" / "select 8 clients" settings).
    rounds_per_task:
        Global communication rounds per incremental task (R in Algorithm 1).
    local:
        Local SGD hyper-parameters shared by all clients.
    partition_concentration:
        Dirichlet concentration of the quantity-shift partitioner (smaller =
        more extreme data-volume imbalance between clients).
    seed:
        Master seed; every stochastic component derives its stream from it.
    executor:
        How a round's selected clients run: ``"serial"`` (historical
        single-process loop) or ``"parallel"`` (process-pool fan-out; see
        :mod:`repro.federated.execution`).  Results are identical for a given
        seed either way.
    num_workers:
        Worker processes for the parallel executor; ``0`` means one per CPU
        the process may run on.  Ignored when ``executor="serial"``.
    shard_cache:
        Whether the parallel executor's client data plane caches dataset
        shards inside worker processes (default on).  With the cache, a
        client's shard crosses the process boundary once per task — light
        handles plus a shard fingerprint travel every round, shard bytes only
        on a worker's first sight of a (client, task) pair.  ``False``
        re-ships every selected shard every round (the pre-cache behaviour);
        results are bit-for-bit identical either way.  Ignored when
        ``executor="serial"``.
    dtype:
        Compute precision of the whole pipeline: ``"float64"`` (reference) or
        ``"float32"`` (≈2x lower memory bandwidth; accuracy differences are
        within noise at these scales).
    kernel:
        How a client's local SGD steps execute (the kernel plane;
        :mod:`repro.autograd.tape`): ``"eager"`` (default) is the historical
        closure-based autograd loop; ``"tape"`` traces each batch shape once
        into a compiled plan and replays it — verified hash-identical to
        eager on its first replay, falling back to eager on any divergence;
        ``"batched"`` additionally stacks eligible same-schedule clients
        along a leading axis and trains the whole cohort through one
        vectorized plan step per batch (:mod:`repro.federated.lockstep`) —
        exact in structure (same draws, same step counts) but tolerance-level
        in floats, and requires ``executor="serial"``.
    eval_executor:
        How the seen-task evaluation suite runs: ``"serial"`` (historical
        in-process loop) or ``"parallel"`` (fan seen tasks × batch-aligned
        test-shard slices over the pinned worker pool — shared with the
        training plane when ``executor="parallel"``; see
        :class:`repro.federated.execution.ParallelEvalBackend`).  Accuracy
        matrices are bit-for-bit identical either way.
    eval_every:
        ``0`` (default) evaluates only after each task's final round.  A
        positive ``k`` additionally scores the global model on every seen
        domain after every ``k``-th round of each task, recording the
        snapshots into ``SimulationResult.round_eval_history`` — the paper's
        per-round accuracy curves, an O(T·R) evaluation workload.  A final
        round's snapshot scores the freshly aggregated state *before* the
        method's ``on_task_end`` hook runs, so it is kept separate from (not
        reused for) the accuracy matrix's after-task evaluation: the two
        coincide only for methods whose ``on_task_end`` leaves the inference
        path untouched.
    codec:
        Wire codec every broadcast and upload frame is encoded with
        (:mod:`repro.federated.transport`; the ledger records the measured
        frame lengths): ``"identity"`` (raw pickle) and ``"delta"`` (sparse
        diff vs. the last acknowledged broadcast) are lossless — results are
        bit-for-bit identical to each other; ``"quantize8"`` /
        ``"quantize16"`` (uniform per-tensor quantization) and ``"topk"`` /
        ``"topk:<fraction>"`` (upload-only magnitude sparsification) trade
        accuracy for bytes.
    bandwidth_limit:
        Per-round uplink byte budget per client; ``0`` (default) is
        unlimited.  Each client's effective budget is the limit scaled by a
        deterministic per-client multiplier (drawn from the run seed), so
        some clients are structurally slow — the constrained-device
        straggler scenario.  Requires ``mode="sync"`` (the event-driven
        modes model slow uplinks through ``device_profile`` link rates
        instead; a per-round budget is a synchronous-cohort concept).
    drop_stragglers:
        What happens to an upload frame over its client's budget: ``True``
        drops it (the update never aggregates; the download was still
        charged), ``False`` (default) defers it to the next round's
        aggregation (deferred frames expire at task boundaries).  A round
        that would lose every upload always keeps the smallest frame.
    mode:
        The temporal plane's aggregation regime
        (:mod:`repro.federated.async_plane`): ``"sync"`` (default) is the
        synchronous round loop (with homogeneous instantaneous device
        profiles, bit-for-bit identical to the untimed engine); ``"async"``
        applies each client's update the moment it arrives on the simulated
        clock, FedAsync-style, with polynomial staleness decay;
        ``"buffered"`` aggregates every ``buffer_size`` arrivals,
        FedBuff-style, with staleness-scaled FedAvg weights.  All three
        train the same total number of local updates per task
        (``rounds_per_task * clients_per_round``), so regimes are compared
        at equal compute.
    device_profile:
        Named system-heterogeneity tier (:data:`repro.federated.clock.
        PROFILE_TIERS`): ``"instant"`` (default; zero simulated cost, always
        online — the temporal no-op), ``"homogeneous"`` (identical finite
        device speeds), or the heterogeneity ladder ``"mild"`` /
        ``"moderate"`` / ``"extreme"`` (increasingly spread compute speeds
        and link rates, decreasing availability, per-task churn).  Every
        client's profile and its online/offline trace derive from
        ``spawn_rng(seed, "device", client_id, ...)``.
    buffer_size:
        Buffered mode's K: aggregate whenever K arrivals have accumulated
        (a partial buffer left at the end of a task still flushes).  ``0``
        (default) means ``clients_per_round`` — the synchronous cohort size.
        Ignored outside ``mode="buffered"``.
    staleness_decay:
        Exponent ``a`` of the polynomial staleness discount
        ``(1 + staleness)^(-a)`` applied to async arrivals and buffered
        flush weights (staleness = global-model versions between a client's
        dispatch and its arrival).  ``0`` disables the discount.  Ignored in
        sync mode.
    sim_time_limit:
        Simulated-seconds budget for the whole run: once the simulated clock
        reaches it, no further work is dispatched (rounds still pending in
        sync mode are skipped; async work already in flight still arrives).
        ``0`` (default) is unlimited.  With ``device_profile="instant"`` the
        clock never advances, so a limit only bites under a finite-cost
        profile.
    faults:
        The fault plane's schedule (:class:`repro.federated.faults.FaultSpec`):
        per-round client-crash probability, per-attempt upload loss/corruption
        probabilities, per-round worker-kill probability, and a periodic
        simulated server restart.  The default all-zero spec never constructs
        an injector — the zero-fault path is bit-for-bit identical to a build
        without the fault plane.
    retries:
        Upload retry budget of the transport: a lost or corrupt
        frame is retransmitted up to this many times (``retries + 1`` total
        attempts) before the update falls to the drop/defer straggler rules.
        Every attempt's bytes are charged to the ledger; the backoff waits
        between attempts are charged to the straggler barrier / event clock.
    retry_backoff:
        Simulated seconds of the first retry wait; each further retry doubles
        it (exponential backoff).  ``0`` retries instantly.
    checkpoint_every:
        Sync mode: additionally snapshot the run every N rounds within a task
        (``0``, the default, checkpoints only at task boundaries).  Requires
        ``checkpoint_dir``.  Task-boundary checkpoints are written in every
        mode whenever ``checkpoint_dir`` is set.
    checkpoint_dir:
        Directory for crash-safe snapshots (:mod:`repro.federated.checkpoint`).
        Empty (default) disables checkpointing entirely — and the simulation
        then performs zero extra work, preserving bit-for-bit identity.
    resume:
        Start from the latest checkpoint in ``checkpoint_dir`` instead of from
        scratch.  The checkpoint's config fingerprint must match (checkpoint
        bookkeeping knobs excluded); a fresh directory silently starts from
        scratch, so the same command line works for the first launch and
        every relaunch after a crash.
    checkpoint_keep:
        Retention bound on ``ckpt-*.ckpt`` files: after every checkpoint
        write, all but the newest K are pruned (oldest resume positions
        first, each removal atomic).  ``0`` (default) keeps every checkpoint
        — the historical unbounded behaviour.  The serving plane's registry
        applies the same last-K policy to published versions.
    serve:
        Stand up the serving plane alongside training: an
        :class:`~repro.serving.engine.InferenceEngine` plus
        :class:`~repro.serving.service.ServingFrontEnd` (exposed as
        ``simulation.serving``) serve predictions from the registry while the
        run publishes into it, hot-swapping at every publish.  Requires
        ``registry_dir``.  Purely observational: trained numbers are
        bit-for-bit identical with serving on or off.
    publish_every:
        Sync mode: additionally publish a registry version every N rounds
        within a task (``0``, the default, publishes only at task
        boundaries).  Requires ``registry_dir``.  Task-boundary versions are
        published in every mode whenever ``registry_dir`` is set.
    registry_dir:
        Directory of the serving plane's model registry
        (:mod:`repro.serving.registry`).  Empty (default) disables publishing
        entirely — the simulation then performs zero extra work, preserving
        bit-for-bit identity.
    serve_codec:
        Wire codec published versions are compressed with — the same specs as
        ``codec`` (``"identity"`` / ``"delta"`` lossless, ``"quantize8"`` /
        ``"quantize16"`` / ``"topk[:f]"`` lossy).  A version stores its
        *encoded* form, so every consumer of a version decodes the same
        arrays deterministically.
    virtual_clients:
        Client identity becomes a lazy *recipe* instead of an eager object
        (:mod:`repro.federated.virtual`): shards are materialized only for
        the round's selected cohort (O(clients_per_round) memory) and
        released afterwards.  With ``population=0`` the population is still
        driven by ``increment`` and every materialized shard is bit-for-bit
        identical to the eager path for the same seed — the whole run
        reproduces the eager run exactly.  Default off (eager shards).
    population:
        ``0`` (default): the client population is whatever ``increment``
        schedules.  A positive N switches to *fleet mode*: N virtual clients
        (requires ``virtual_clients=True``), every one of them eligible for
        every task, each drawing a per-task quantity-shift shard recipe from
        ``spawn_rng(seed, "vshard", task_id, client_id)``.  Selection,
        availability, churn and crash draws all stay O(cohort) per round, so
        ``population=100_000`` costs the same memory as ``population=1_000``.
    reduce_backend:
        How a cohort's updates aggregate (:mod:`repro.federated.aggregation`):
        ``"flat"`` (default) is the star — one server-side FedAvg, bit-for-bit
        the historical path; ``"tree"`` reduces through a fan-out tree of edge
        aggregators whose weighted partial sums ride codec'd wire frames to
        their parents (edge→root bytes measured in the ledger, CRC + bounded
        retries on every hop).  Tree and flat agree to float tolerance, not
        bit-for-bit: flat normalizes weights before accumulating, the tree
        sums partials and divides once at the root.
    tree_fanout:
        Children per aggregator node of the reduce tree (≥ 2).  A cohort no
        larger than the fan-out degenerates to a single root reduce with zero
        edge frames.  Ignored when ``reduce_backend="flat"``.

    Knobs tagged with :func:`_trajectory_free` never change the trained state
    and carry no checkpointed state (the execution plane and the
    checkpoint/serving bookkeeping).  :func:`reset_trajectory_free` puts them
    back to their defaults, which is all the checkpoint fingerprint and the
    run cache need to know about them: a new knob of that kind is tagged
    where it is declared and nowhere else.
    """

    increment: ClientIncrementConfig = field(default_factory=ClientIncrementConfig)
    clients_per_round: int = 5
    rounds_per_task: int = 3
    local: LocalTrainingConfig = field(default_factory=LocalTrainingConfig)
    partition_concentration: float = 1.0
    eval_batch_size: int = 64
    seed: int = 0
    executor: str = _trajectory_free("serial")
    num_workers: int = _trajectory_free(0)
    shard_cache: bool = _trajectory_free(True)
    dtype: str = "float64"
    kernel: str = "eager"
    eval_executor: str = _trajectory_free("serial")
    eval_every: int = 0
    codec: str = "identity"
    bandwidth_limit: int = 0
    drop_stragglers: bool = False
    mode: str = "sync"
    device_profile: str = "instant"
    buffer_size: int = 0
    staleness_decay: float = 0.5
    sim_time_limit: float = 0.0
    faults: FaultSpec = field(default_factory=FaultSpec)
    retries: int = 2
    retry_backoff: float = 0.5
    checkpoint_every: int = _trajectory_free(0)
    checkpoint_dir: str = _trajectory_free("")
    resume: bool = _trajectory_free(False)
    checkpoint_keep: int = _trajectory_free(0)
    serve: bool = _trajectory_free(False)
    publish_every: int = _trajectory_free(0)
    registry_dir: str = _trajectory_free("")
    serve_codec: str = _trajectory_free("identity")
    virtual_clients: bool = False
    population: int = 0
    reduce_backend: str = "flat"
    tree_fanout: int = 2

    def __post_init__(self) -> None:
        if self.clients_per_round < 1:
            raise ValueError("clients_per_round must be at least 1")
        if self.rounds_per_task < 1:
            raise ValueError("rounds_per_task must be at least 1")
        if not self.partition_concentration > 0:  # NaN fails too
            raise ValueError("partition_concentration must be positive")
        if self.eval_batch_size < 1:
            raise ValueError("eval_batch_size must be at least 1")
        if self.executor not in ("serial", "parallel"):
            raise ValueError(f"executor must be 'serial' or 'parallel', got {self.executor!r}")
        if self.num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if self.kernel not in KERNELS:
            raise ValueError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.kernel == "batched" and self.executor != "serial":
            raise ValueError(
                "kernel='batched' requires executor='serial': lockstep "
                "vectorizes the round's cohort itself, so a worker pool "
                "underneath it would shard the very groups it batches"
            )
        if self.eval_executor not in ("serial", "parallel"):
            raise ValueError(
                f"eval_executor must be 'serial' or 'parallel', got {self.eval_executor!r}"
            )
        if self.eval_every < 0:
            raise ValueError("eval_every must be non-negative (0 disables mid-task evaluation)")
        build_codec(self.codec)  # raises ValueError on an unknown codec spec
        if self.bandwidth_limit < 0:
            raise ValueError("bandwidth_limit must be non-negative (0 means unlimited)")
        if self.bandwidth_limit > 0 and self.mode != "sync":
            raise ValueError(
                "bandwidth_limit requires mode='sync': the event-driven modes "
                "collect one upload per arrival, so the transport's keep-one "
                "rule would always deliver the sole over-budget frame and the "
                "budget would be silently inert (model slow uplinks there with "
                "device_profile link rates instead)"
            )
        if self.mode not in ("sync", "async", "buffered"):
            raise ValueError(
                f"mode must be 'sync', 'async' or 'buffered', got {self.mode!r}"
            )
        if self.device_profile not in PROFILE_TIERS:
            raise ValueError(
                f"device_profile must be one of {sorted(PROFILE_TIERS)}, "
                f"got {self.device_profile!r}"
            )
        if self.buffer_size < 0:
            raise ValueError(
                "buffer_size must be non-negative (0 means clients_per_round)"
            )
        if not self.staleness_decay >= 0:
            raise ValueError("staleness_decay must be non-negative (0 disables decay)")
        if not self.sim_time_limit >= 0:
            raise ValueError("sim_time_limit must be non-negative (0 means unlimited)")
        if not isinstance(self.faults, FaultSpec):
            raise ValueError(f"faults must be a FaultSpec, got {type(self.faults).__name__}")
        if self.retries < 0:
            raise ValueError("retries must be non-negative (0 means a single attempt)")
        if not self.retry_backoff >= 0:
            raise ValueError("retry_backoff must be non-negative (0 retries instantly)")
        if self.checkpoint_every < 0:
            raise ValueError(
                "checkpoint_every must be non-negative (0 checkpoints only at task boundaries)"
            )
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if self.checkpoint_every > 0 and self.mode != "sync":
            raise ValueError(
                "checkpoint_every requires mode='sync' (the event-driven modes "
                "have no mid-task round boundary to snapshot at; task-boundary "
                "checkpoints still work in every mode via checkpoint_dir)"
            )
        if self.resume and not self.checkpoint_dir:
            raise ValueError("resume requires checkpoint_dir")
        if self.checkpoint_keep < 0:
            raise ValueError(
                "checkpoint_keep must be non-negative (0 keeps every checkpoint)"
            )
        if self.publish_every < 0:
            raise ValueError(
                "publish_every must be non-negative (0 publishes only at task boundaries)"
            )
        if self.publish_every > 0 and not self.registry_dir:
            raise ValueError("publish_every requires registry_dir")
        if self.publish_every > 0 and self.mode != "sync":
            raise ValueError(
                "publish_every requires mode='sync' (the event-driven modes "
                "have no mid-task round boundary to publish at; task-boundary "
                "versions are still published in every mode via registry_dir)"
            )
        if self.serve and not self.registry_dir:
            raise ValueError(
                "serve requires registry_dir (the front end serves registry versions)"
            )
        build_codec(self.serve_codec)  # raises ValueError on an unknown codec spec
        if self.population < 0:
            raise ValueError(
                "population must be non-negative (0 means the increment "
                "schedule drives the population)"
            )
        if self.population > 0 and not self.virtual_clients:
            raise ValueError(
                "population > 0 requires virtual_clients=True: a fleet-scale "
                "population only exists as lazy recipes, never as eager shards"
            )
        if self.reduce_backend not in ("flat", "tree"):
            raise ValueError(
                f"reduce_backend must be 'flat' or 'tree', got {self.reduce_backend!r}"
            )
        if self.tree_fanout < 2:
            raise ValueError("tree_fanout must be at least 2")
        try:
            resolved = np.dtype(self.dtype)
        except TypeError as error:
            raise ValueError(f"dtype must be 'float64' or 'float32', got {self.dtype!r}") from error
        if resolved not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"dtype must be 'float64' or 'float32', got {self.dtype!r}")


def reset_trajectory_free(config: FederatedConfig) -> FederatedConfig:
    """``config`` with every trajectory-free knob back at its default."""
    return replace(
        config,
        **{f.name: f.default for f in fields(config) if f.metadata.get(TRAJECTORY_FREE)},
    )


__all__ = ["FederatedConfig", "reset_trajectory_free"]
