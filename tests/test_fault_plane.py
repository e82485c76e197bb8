"""Fault plane: deterministic injection, retries, self-healing, checkpoint/resume."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import build_method
from repro.baselines.base import BaselineConfig
from repro.baselines.finetune import FinetuneMethod
from repro.continual import DomainIncrementalScenario
from repro.datasets import SyntheticDomainDataset
from repro.federated import (
    CheckpointCorruptionError,
    CheckpointMismatchError,
    FaultInjector,
    FaultSpec,
    FederatedDomainIncrementalSimulation,
    FrameCorruptionError,
    FrameDecodeError,
    TransportError,
    WorkerDiedError,
    checkpoint_name,
    latest_checkpoint,
    load_checkpoint,
    parse_checkpoint_name,
    save_checkpoint,
    simulation_state_hash,
    verify_frame,
)
from repro.federated.communication import (
    CommunicationLedger,
    WireFrame,
    build_codec,
    encode_frame,
)
from repro.federated.config import FederatedConfig
from repro.federated.transport import Transport, _PendingRound


def _scenario(tiny_spec, num_tasks=2):
    return DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=num_tasks)


def _build(tiny_spec, tiny_backbone_config, config, num_tasks=2, method=None):
    scenario = _scenario(tiny_spec, num_tasks=num_tasks)
    if method is None:
        method = build_method("finetune", tiny_backbone_config, num_tasks=scenario.num_tasks)
    return FederatedDomainIncrementalSimulation(scenario, method, config)


def _run(tiny_spec, tiny_backbone_config, config, num_tasks=2, method=None):
    simulation = _build(tiny_spec, tiny_backbone_config, config, num_tasks=num_tasks, method=method)
    return simulation, simulation.run()


def _matrix_bytes(simulation) -> bytes:
    return simulation.evaluator.accuracy_matrix._matrix.tobytes()


class _WorkerKiller(FinetuneMethod):
    """A method whose local update hard-exits the hosting process.

    ``os._exit`` skips every exception path, so the worker dies exactly like
    a crashed process: no result, no error message, just a corpse for the
    pool's liveness check to find.
    """

    name = "worker-killer"

    def local_update(self, model, global_state, broadcast_payload, client):
        os._exit(3)


# --------------------------------------------------------------------------- #
# FaultSpec / injector determinism
# --------------------------------------------------------------------------- #
class TestFaultSpec:
    def test_defaults_are_disabled(self):
        assert not FaultSpec().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"client_crash_rate": 0.1},
            {"upload_loss_rate": 0.1},
            {"upload_corruption_rate": 0.1},
            {"worker_kill_rate": 0.1},
            {"server_restart_every": 2},
        ],
    )
    def test_any_nonzero_knob_enables(self, kwargs):
        assert FaultSpec(**kwargs).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"client_crash_rate": -0.1},
            {"upload_loss_rate": 1.5},
            {"server_restart_every": -1},
            {"crash_fraction": 2.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)


def _query_all(injector: FaultInjector, order):
    """Run a fixed predicate program over the given coordinate order."""
    for task_id, round_index, client_id in order:
        injector.client_crashes(task_id, round_index, client_id)
        for attempt in (1, 2):
            injector.upload_lost(task_id, round_index, client_id, attempt)
            injector.upload_corrupted(task_id, round_index, client_id, attempt)
        injector.worker_to_kill(task_id, round_index, 4)
    return injector.trace


class TestInjectorDeterminism:
    COORDS = [(t, r, c) for t in range(2) for r in range(2) for c in range(3)]

    @given(
        seed=st.integers(0, 2**16),
        crash=st.floats(0.0, 1.0, allow_nan=False),
        lose=st.floats(0.0, 1.0, allow_nan=False),
        corrupt=st.floats(0.0, 1.0, allow_nan=False),
        kill=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_trace_is_pure_function_of_seed_and_spec(self, seed, crash, lose, corrupt, kill):
        spec = FaultSpec(
            client_crash_rate=crash,
            upload_loss_rate=lose,
            upload_corruption_rate=corrupt,
            worker_kill_rate=kill,
        )
        first = _query_all(FaultInjector(seed, spec), self.COORDS)
        second = _query_all(FaultInjector(seed, spec), self.COORDS)
        assert first == second

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_fired_faults_are_order_independent(self, seed):
        spec = FaultSpec(
            client_crash_rate=0.5, upload_loss_rate=0.5, upload_corruption_rate=0.5
        )
        forward = _query_all(FaultInjector(seed, spec), self.COORDS)
        backward = _query_all(FaultInjector(seed, spec), list(reversed(self.COORDS)))
        as_set = lambda trace: {tuple(sorted(entry.items())) for entry in trace}
        assert as_set(forward) == as_set(backward)

    def test_corrupt_frame_always_fails_checksum(self):
        injector = FaultInjector(3, FaultSpec(upload_corruption_rate=1.0))
        frame = encode_frame("upload", build_codec("identity"), {"w": np.arange(6.0)}, None)
        assert frame.checksum_ok()
        for attempt in range(1, 6):
            mangled = injector.corrupt_frame(frame, 0, 0, 1, attempt)
            assert not mangled.checksum_ok()
            assert mangled.num_bytes == frame.num_bytes

    def test_server_restart_is_periodic_without_rng(self):
        injector = FaultInjector(0, FaultSpec(server_restart_every=3))
        fired = [counter for counter in range(1, 10) if injector.server_restarts(counter)]
        assert fired == [3, 6, 9]
        assert injector.counters["server_restarts"] == 3

    def test_state_dict_roundtrip(self):
        spec = FaultSpec(client_crash_rate=0.9)
        injector = FaultInjector(5, spec)
        _query_all(injector, self.COORDS)
        clone = FaultInjector(5, spec)
        clone.load_state_dict(injector.state_dict())
        assert clone.trace == injector.trace
        assert clone.summary() == injector.summary()


# --------------------------------------------------------------------------- #
# Transport: retry bound, backoff, error hierarchy
# --------------------------------------------------------------------------- #
def _loopback(retries: int, backoff: float, spec: FaultSpec, seed: int = 0) -> Transport:
    return Transport(
        CommunicationLedger(),
        build_codec("identity"),
        retries=retries,
        retry_backoff=backoff,
        faults=FaultInjector(seed, spec),
    )


def _pending() -> _PendingRound:
    return _PendingRound(
        task_id=0, round_index=0, selected=(1,), broadcast_frames=[], received={}
    )


class TestTransportRetries:
    @given(
        seed=st.integers(0, 2**16),
        retries=st.integers(0, 4),
        lose=st.floats(0.0, 1.0, allow_nan=False),
        corrupt=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_attempts_never_exceed_bound(self, seed, retries, lose, corrupt):
        spec = FaultSpec(upload_loss_rate=lose, upload_corruption_rate=corrupt)
        transport = _loopback(retries, 0.5, spec, seed=seed)
        frame = encode_frame("upload", build_codec("identity"), {"w": np.arange(8.0)}, None)
        attempts, penalty, records, arrived = transport._transmit(1, frame, _pending())
        assert 1 <= attempts <= retries + 1
        assert len(records) == (attempts - 1 if arrived else attempts)
        assert all(record.status in ("lost", "corrupt") for record in records)
        assert penalty >= 0.0

    @given(retries=st.integers(0, 4))
    @settings(max_examples=10, deadline=None)
    def test_certain_loss_exhausts_exactly_the_bound(self, retries):
        transport = _loopback(retries, 0.25, FaultSpec(upload_loss_rate=1.0))
        frame = encode_frame("upload", build_codec("identity"), {"w": np.arange(4.0)}, None)
        attempts, penalty, records, arrived = transport._transmit(7, frame, _pending())
        assert not arrived
        assert attempts == retries + 1
        assert [record.status for record in records] == ["lost"] * (retries + 1)
        # Exponential backoff between attempts: 0.25 * (1 + 2 + ... + 2^(r-1)).
        assert penalty == pytest.approx(0.25 * (2.0**retries - 1.0))

    def test_zero_fault_transmit_is_a_single_clean_attempt(self):
        transport = _loopback(3, 0.5, FaultSpec(client_crash_rate=0.5))  # no frame faults
        frame = encode_frame("upload", build_codec("identity"), {"w": np.arange(4.0)}, None)
        assert transport._transmit(1, frame, _pending()) == (1, 0.0, [], True)


class TestTransportErrors:
    def test_verify_frame_raises_with_coordinates(self):
        frame = encode_frame("upload", build_codec("identity"), {"w": np.arange(4.0)}, None)
        body = bytearray(frame.body)
        body[0] ^= 0xFF
        mangled = WireFrame(
            kind=frame.kind, codec=frame.codec, body=bytes(body), checksum=frame.checksum
        )
        with pytest.raises(FrameCorruptionError) as excinfo:
            verify_frame(mangled, client_id=4, direction="upload", task_id=1, round_index=2)
        error = excinfo.value
        assert isinstance(error, TransportError)
        assert (error.client_id, error.direction) == (4, "upload")
        assert (error.task_id, error.round_index) == (1, 2)
        assert "client_id=4" in str(error)

    def test_clean_frame_passes(self):
        frame = encode_frame("upload", build_codec("identity"), {"w": np.arange(4.0)}, None)
        verify_frame(frame, client_id=0, direction="upload")

    def test_undecodable_frame_raises_decode_error_with_context(self):
        garbage = b"certainly not a pickle"
        frame = WireFrame(
            kind="upload", codec="identity", body=garbage, checksum=zlib.crc32(garbage)
        )
        with pytest.raises(FrameDecodeError) as excinfo:
            Transport._decode_frame_checked(
                frame,
                build_codec("identity"),
                None,
                client_id=9,
                direction="upload",
                task_id=0,
                round_index=1,
            )
        assert excinfo.value.client_id == 9
        assert excinfo.value.direction == "upload"
        assert isinstance(excinfo.value, TransportError)


# --------------------------------------------------------------------------- #
# Zero-fault / checkpoint-off inertness
# --------------------------------------------------------------------------- #
class TestZeroFaultParity:
    def test_fault_knobs_are_inert_when_disabled(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, tmp_path
    ):
        """Changing retry knobs and turning checkpointing on must not move a bit."""
        base_cfg = replace(tiny_federated_config, rounds_per_task=2)
        baseline_sim, baseline = _run(tiny_spec, tiny_backbone_config, base_cfg)
        knobs_cfg = replace(
            base_cfg,
            retries=7,
            retry_backoff=3.0,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        knobs_sim, knobs = _run(tiny_spec, tiny_backbone_config, knobs_cfg)
        assert simulation_state_hash(baseline_sim) == simulation_state_hash(knobs_sim)
        assert _matrix_bytes(baseline_sim) == _matrix_bytes(knobs_sim)
        assert baseline.round_losses == knobs.round_losses
        assert baseline.event_log == knobs.event_log
        assert baseline.fault_stats == {}
        assert knobs.fault_stats["checkpoints_written"] > 0

    def test_worker_kills_heal_bit_for_bit(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        """A killed-and-respawned worker replays its chunk with identical results."""
        base_cfg = replace(
            tiny_federated_config, rounds_per_task=2, executor="parallel", num_workers=2
        )
        clean_sim, clean = _run(tiny_spec, tiny_backbone_config, base_cfg)
        faulty_cfg = replace(base_cfg, faults=FaultSpec(worker_kill_rate=1.0))
        faulty_sim, faulty = _run(tiny_spec, tiny_backbone_config, faulty_cfg)
        assert faulty.fault_stats["workers_killed"] > 0
        assert faulty.fault_stats["worker_respawns"] > 0
        assert simulation_state_hash(clean_sim) == simulation_state_hash(faulty_sim)
        assert _matrix_bytes(clean_sim) == _matrix_bytes(faulty_sim)
        assert clean.round_losses == faulty.round_losses

    def test_server_restarts_are_lossless_under_delta_codec(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        """Restarts wipe delta acks (dense re-broadcasts) but never the numbers."""
        base_cfg = replace(tiny_federated_config, rounds_per_task=2, codec="delta")
        clean_sim, _ = _run(tiny_spec, tiny_backbone_config, base_cfg)
        restart_cfg = replace(base_cfg, faults=FaultSpec(server_restart_every=1))
        restart_sim, restarted = _run(tiny_spec, tiny_backbone_config, restart_cfg)
        assert restarted.fault_stats["server_restarts"] > 0
        assert any(event["kind"] == "server_restart" for event in restarted.event_log)
        assert simulation_state_hash(clean_sim) == simulation_state_hash(restart_sim)


# --------------------------------------------------------------------------- #
# Fault trajectories are deterministic per seed
# --------------------------------------------------------------------------- #
class TestFaultedRunsAreDeterministic:
    def test_sync_crash_and_corruption_replay_identically(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        config = replace(
            tiny_federated_config,
            rounds_per_task=2,
            faults=FaultSpec(client_crash_rate=0.5, upload_corruption_rate=0.4),
            retries=2,
            retry_backoff=0.5,
        )
        first_sim, first = _run(tiny_spec, tiny_backbone_config, config)
        second_sim, second = _run(tiny_spec, tiny_backbone_config, config)
        assert first.fault_stats["client_crashes"] > 0
        assert any(event["kind"] == "client_crash" for event in first.event_log)
        assert first.event_log == second.event_log
        assert first.fault_stats == second.fault_stats
        assert simulation_state_hash(first_sim) == simulation_state_hash(second_sim)
        assert _matrix_bytes(first_sim) == _matrix_bytes(second_sim)

    @pytest.mark.parametrize("mode", ["async", "buffered"])
    def test_temporal_plane_crash_and_rejoin_events(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, mode
    ):
        config = replace(
            tiny_federated_config,
            rounds_per_task=2,
            mode=mode,
            device_profile="homogeneous",
            faults=FaultSpec(client_crash_rate=0.5),
        )
        first_sim, first = _run(tiny_spec, tiny_backbone_config, config)
        kinds = [event["kind"] for event in first.event_log]
        assert "client_crash" in kinds
        assert "client_rejoin" in kinds
        assert first.fault_stats["client_crashes"] == kinds.count("client_crash")
        second_sim, second = _run(tiny_spec, tiny_backbone_config, config)
        assert first.event_log == second.event_log
        assert simulation_state_hash(first_sim) == simulation_state_hash(second_sim)


# --------------------------------------------------------------------------- #
# Worker death without the fault plane
# --------------------------------------------------------------------------- #
class TestWorkerDeath:
    def test_dead_worker_raises_typed_error_with_pending_clients(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        config = replace(tiny_federated_config, executor="parallel", num_workers=2)
        method = _WorkerKiller(BaselineConfig(backbone=tiny_backbone_config))
        simulation = _build(tiny_spec, tiny_backbone_config, config, method=method)
        with pytest.raises(WorkerDiedError) as excinfo:
            simulation.run()
        error = excinfo.value
        assert error.worker_ids
        assert error.client_ids  # the chunk's clients are named in the failure
        assert "pending client ids" in str(error)
        # close() is idempotent and safe after the failure (run() already
        # closed once on its error path).
        simulation.close()
        simulation.close()


# --------------------------------------------------------------------------- #
# Checkpoint file format
# --------------------------------------------------------------------------- #
class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / checkpoint_name(1, 2))
        payload = {"hello": np.arange(5.0), "nested": {"a": 1}}
        save_checkpoint(path, payload)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["hello"], payload["hello"])
        assert loaded["nested"] == {"a": 1}
        assert not os.path.exists(path + ".tmp")

    def test_name_encodes_resume_position(self):
        assert parse_checkpoint_name(checkpoint_name(3, 14)) == (3, 14)
        assert parse_checkpoint_name("not-a-checkpoint.bin") is None

    def test_latest_picks_furthest_position(self, tmp_path):
        for position in [(0, 1), (1, 0), (0, 2)]:
            save_checkpoint(str(tmp_path / checkpoint_name(*position)), {"p": position})
        latest = latest_checkpoint(str(tmp_path))
        assert latest is not None and latest.endswith(checkpoint_name(1, 0))
        assert latest_checkpoint(str(tmp_path / "missing")) is None

    @pytest.mark.parametrize("mutation", ["truncate", "flip", "magic"])
    def test_corruption_is_detected(self, tmp_path, mutation):
        path = str(tmp_path / checkpoint_name(0, 1))
        save_checkpoint(path, {"x": 1})
        raw = bytearray(open(path, "rb").read())
        if mutation == "truncate":
            raw = raw[: len(raw) // 2]
        elif mutation == "flip":
            raw[-1] ^= 0xFF
        else:
            raw[:4] = b"XXXX"
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(path)


# --------------------------------------------------------------------------- #
# Checkpoint -> resume equals uninterrupted, across modes
# --------------------------------------------------------------------------- #
class TestCheckpointResume:
    @pytest.mark.parametrize("mode", ["sync", "async", "buffered"])
    def test_resume_matches_uninterrupted(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, tmp_path, mode
    ):
        full_dir = tmp_path / "full"
        config = replace(
            tiny_federated_config,
            rounds_per_task=2,
            mode=mode,
            checkpoint_every=1 if mode == "sync" else 0,
            checkpoint_dir=str(full_dir),
        )
        full_sim, full = _run(tiny_spec, tiny_backbone_config, config)
        full_hash = simulation_state_hash(full_sim)

        # Keep only the earliest snapshot: the resumed run must re-train
        # everything after it and still land on the same bits.
        names = sorted(os.listdir(full_dir), key=parse_checkpoint_name)
        assert len(names) >= 2
        resume_dir = tmp_path / "resume"
        resume_dir.mkdir()
        shutil.copy(full_dir / names[0], resume_dir / names[0])

        resumed_cfg = replace(config, checkpoint_dir=str(resume_dir), resume=True)
        resumed_sim, resumed = _run(tiny_spec, tiny_backbone_config, resumed_cfg)
        assert resumed.fault_stats["resumed_from"] is not None
        assert simulation_state_hash(resumed_sim) == full_hash
        assert _matrix_bytes(resumed_sim) == _matrix_bytes(full_sim)
        assert resumed.round_losses == full.round_losses
        assert resumed.event_log == full.event_log

    def test_serial_checkpoint_resumes_on_workers(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, tmp_path
    ):
        # The executor is trajectory-free: a crashed serial run may be resumed
        # on a worker pool and must land on the uninterrupted run's bits.
        full_dir = tmp_path / "full"
        config = replace(
            tiny_federated_config,
            rounds_per_task=2,
            checkpoint_every=1,
            checkpoint_dir=str(full_dir),
        )
        full_sim, _ = _run(tiny_spec, tiny_backbone_config, config)
        names = sorted(os.listdir(full_dir), key=parse_checkpoint_name)
        resume_dir = tmp_path / "resume"
        resume_dir.mkdir()
        shutil.copy(full_dir / names[0], resume_dir / names[0])

        resumed_cfg = replace(
            config,
            checkpoint_dir=str(resume_dir),
            resume=True,
            executor="parallel",
            num_workers=2,
        )
        resumed_sim, resumed = _run(tiny_spec, tiny_backbone_config, resumed_cfg)
        assert resumed.fault_stats["resumed_from"] is not None
        assert simulation_state_hash(resumed_sim) == simulation_state_hash(full_sim)

    def test_resume_from_empty_directory_starts_fresh(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, tmp_path
    ):
        config = replace(
            tiny_federated_config,
            checkpoint_dir=str(tmp_path / "empty"),
            resume=True,
        )
        plain_sim, _ = _run(tiny_spec, tiny_backbone_config, tiny_federated_config)
        fresh_sim, fresh = _run(tiny_spec, tiny_backbone_config, config)
        assert fresh.fault_stats.get("resumed_from") is None
        assert simulation_state_hash(plain_sim) == simulation_state_hash(fresh_sim)

    def test_fingerprint_mismatch_refuses_to_resume(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, tmp_path
    ):
        directory = str(tmp_path / "ckpt")
        config = replace(tiny_federated_config, checkpoint_dir=directory)
        _run(tiny_spec, tiny_backbone_config, config)
        mismatched = replace(config, seed=config.seed + 1, resume=True)
        simulation = _build(tiny_spec, tiny_backbone_config, mismatched)
        with pytest.raises(CheckpointMismatchError):
            simulation.run()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederatedConfig(checkpoint_every=1)  # needs checkpoint_dir
        with pytest.raises(ValueError):
            FederatedConfig(resume=True)  # needs checkpoint_dir
        with pytest.raises(ValueError):
            FederatedConfig(checkpoint_every=1, checkpoint_dir="x", mode="async")
        with pytest.raises(ValueError):
            FederatedConfig(retries=-1)


# --------------------------------------------------------------------------- #
# kill -9 mid-run, relaunch with resume=True (the acceptance scenario)
# --------------------------------------------------------------------------- #
_KILL_SCRIPT = textwrap.dedent(
    """
    import os, sys

    mode, ckpt_dir = sys.argv[1], sys.argv[2]

    from repro.baselines import build_method
    from repro.continual import DomainIncrementalScenario
    from repro.datasets import SyntheticDomainDataset
    from repro.datasets.registry import get_dataset_spec
    from repro.federated import FederatedDomainIncrementalSimulation, simulation_state_hash
    from repro.federated.client import LocalTrainingConfig
    from repro.federated.config import FederatedConfig
    from repro.federated.increment import ClientIncrementConfig
    from repro.models.backbone import BackboneConfig

    spec = get_dataset_spec("office_caltech").scaled(
        train_per_domain=24, test_per_domain=12, num_classes=3
    )
    backbone = BackboneConfig(
        image_size=spec.image_size, num_classes=spec.num_classes,
        base_width=4, embed_dim=16, num_heads=2, seed=7,
    )
    config = FederatedConfig(
        increment=ClientIncrementConfig(
            initial_clients=3, increment_per_task=1, transfer_fraction=0.8, seed=7
        ),
        clients_per_round=2,
        rounds_per_task=2,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
        seed=7,
        checkpoint_every=1 if ckpt_dir else 0,
        checkpoint_dir=ckpt_dir,
        resume=bool(ckpt_dir) and mode == "run",
    )
    scenario = DomainIncrementalScenario(SyntheticDomainDataset(spec), num_tasks=2)
    method = build_method("finetune", backbone, num_tasks=scenario.num_tasks)
    sim = FederatedDomainIncrementalSimulation(scenario, method, config)

    if mode == "crash":
        original = sim._write_checkpoint
        written = {"count": 0}

        def dying_write(start_task, start_round):
            original(start_task, start_round)
            written["count"] += 1
            if written["count"] >= 3:
                os.kill(os.getpid(), 9)  # SIGKILL: no cleanup, no excuses

        sim._write_checkpoint = dying_write

    sim.run()
    print("RESUMED", sim._resumed_from)
    print("HASH", simulation_state_hash(sim))
    print("MATRIX", sim.evaluator.accuracy_matrix._matrix.tobytes().hex())
    """
)


def _run_child(script_path, mode, ckpt_dir):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, script_path, mode, ckpt_dir],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _parse_output(stdout):
    values = {}
    for line in stdout.splitlines():
        parts = line.split(" ", 1)
        if len(parts) == 2 and parts[0] in ("RESUMED", "HASH", "MATRIX"):
            values[parts[0]] = parts[1]
    return values


class TestKillAndResume:
    def test_sigkill_then_resume_reproduces_the_run(self, tmp_path):
        script_path = str(tmp_path / "kill_resume_run.py")
        with open(script_path, "w") as handle:
            handle.write(_KILL_SCRIPT)
        ckpt_dir = str(tmp_path / "ckpt")

        crashed = _run_child(script_path, "crash", ckpt_dir)
        assert crashed.returncode == -9, crashed.stderr  # died by SIGKILL mid-run
        assert os.listdir(ckpt_dir)  # checkpoints survived the kill

        resumed = _run_child(script_path, "run", ckpt_dir)
        assert resumed.returncode == 0, resumed.stderr
        resumed_values = _parse_output(resumed.stdout)
        assert resumed_values["RESUMED"] != "None"

        reference = _run_child(script_path, "run", "")
        assert reference.returncode == 0, reference.stderr
        reference_values = _parse_output(reference.stdout)

        assert resumed_values["HASH"] == reference_values["HASH"]
        assert resumed_values["MATRIX"] == reference_values["MATRIX"]
