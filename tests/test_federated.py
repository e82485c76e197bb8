"""Tests for the federated substrate: FedAvg, sampling, client increment, server, communication."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated import (
    ClientGroup,
    ClientIncrementConfig,
    ClientIncrementSchedule,
    ClientUpdate,
    CommunicationLedger,
    FederatedServer,
    FrameRecord,
    LocalTrainingConfig,
    RoundCommRecord,
    fedavg,
    sample_clients,
    weighted_average_arrays,
)
from repro.federated.client import ClientHandle, run_local_sgd
from repro.autograd import functional as F
from repro.datasets.base import ArrayDataset
from repro.nn.linear import Linear


class TestAggregation:
    def test_weighted_average_basic(self):
        result = weighted_average_arrays([np.array([0.0]), np.array([10.0])], [1.0, 3.0])
        assert result[0] == pytest.approx(7.5)

    def test_weighted_average_validation(self):
        with pytest.raises(ValueError):
            weighted_average_arrays([], [])
        with pytest.raises(ValueError):
            weighted_average_arrays([np.zeros(2)], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_average_arrays([np.zeros(2), np.zeros(2)], [-1.0, 1.0])
        with pytest.raises(ValueError):
            weighted_average_arrays([np.zeros(2), np.zeros(3)], [1.0, 1.0])

    def test_fedavg_weighted_by_samples(self):
        states = [{"w": np.array([0.0])}, {"w": np.array([4.0])}]
        merged = fedavg(states, [1, 3])
        assert merged["w"][0] == pytest.approx(3.0)

    def test_fedavg_identical_states_is_identity(self):
        state = {"w": np.array([1.0, 2.0]), "b": np.array([3.0])}
        merged = fedavg([state, dict(state)], [5, 7])
        assert np.allclose(merged["w"], state["w"])
        assert np.allclose(merged["b"], state["b"])

    def test_fedavg_key_mismatch_raises(self):
        with pytest.raises(ValueError):
            fedavg([{"w": np.zeros(1)}, {"v": np.zeros(1)}], [1, 1])

    def test_fedavg_zero_samples_falls_back_to_uniform(self):
        states = [{"w": np.array([0.0])}, {"w": np.array([2.0])}]
        merged = fedavg(states, [0, 0])
        assert merged["w"][0] == pytest.approx(1.0)

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=6),
        st.lists(st.integers(1, 100), min_size=2, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_fedavg_is_convex_combination(self, values, weights):
        n = min(len(values), len(weights))
        states = [{"w": np.array([v])} for v in values[:n]]
        merged = fedavg(states, weights[:n])
        assert min(values[:n]) - 1e-9 <= merged["w"][0] <= max(values[:n]) + 1e-9


class TestSampling:
    def test_samples_requested_count_without_replacement(self):
        chosen = sample_clients(list(range(10)), 4, np.random.default_rng(0))
        assert len(chosen) == 4
        assert len(set(chosen)) == 4

    def test_returns_all_when_fewer_available(self):
        assert sample_clients([3, 5], 10, np.random.default_rng(0)) == [3, 5]

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_clients([1, 2], 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_clients([], 2, np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        a = sample_clients(list(range(20)), 5, np.random.default_rng(9))
        b = sample_clients(list(range(20)), 5, np.random.default_rng(9))
        assert a == b


class TestClientIncrement:
    def test_first_task_all_new(self):
        schedule = ClientIncrementSchedule(ClientIncrementConfig(initial_clients=5, seed=0))
        assignment = schedule.assignment_for_task(0)
        assert len(assignment.new_clients) == 5
        assert assignment.old_clients == [] and assignment.in_between_clients == []

    def test_population_grows_by_increment(self):
        config = ClientIncrementConfig(initial_clients=6, increment_per_task=2, seed=0)
        schedule = ClientIncrementSchedule(config)
        for task in range(4):
            assignment = schedule.assignment_for_task(task)
            assert len(assignment.active_clients) == 6 + 2 * task

    def test_transfer_fraction_controls_in_between_count(self):
        config = ClientIncrementConfig(initial_clients=10, increment_per_task=0, transfer_fraction=0.8, seed=1)
        schedule = ClientIncrementSchedule(config)
        assignment = schedule.assignment_for_task(1)
        assert len(assignment.in_between_clients) == 8
        assert len(assignment.old_clients) == 2

    def test_groups_partition_active_clients(self):
        config = ClientIncrementConfig(initial_clients=7, increment_per_task=3, transfer_fraction=0.5, seed=2)
        schedule = ClientIncrementSchedule(config)
        assignment = schedule.assignment_for_task(2)
        union = set(assignment.new_clients) | set(assignment.in_between_clients) | set(assignment.old_clients)
        assert union == set(assignment.active_clients)
        assert assignment.clients_taking_new_domain == sorted(
            set(assignment.new_clients) | set(assignment.in_between_clients)
        )

    def test_deterministic_given_seed(self):
        config = ClientIncrementConfig(initial_clients=8, increment_per_task=2, seed=3)
        a = ClientIncrementSchedule(config).assignment_for_task(3)
        b = ClientIncrementSchedule(config).assignment_for_task(3)
        assert a.groups == b.groups

    def test_schedule_trace_totals(self):
        config = ClientIncrementConfig(initial_clients=4, increment_per_task=1, seed=0)
        trace = ClientIncrementSchedule(config).schedule_trace(3)
        assert [row["total"] for row in trace] == [4, 5, 6]
        assert all(row["old"] + row["in_between"] + row["new"] == row["total"] for row in trace)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientIncrementConfig(initial_clients=0)
        with pytest.raises(ValueError):
            ClientIncrementConfig(transfer_fraction=1.5)
        schedule = ClientIncrementSchedule(ClientIncrementConfig())
        with pytest.raises(IndexError):
            schedule.assignment_for_task(-1)


class TestCommunication:
    def test_ledger_accumulates(self):
        ledger = CommunicationLedger()
        for round_index in range(2):
            ledger.record_measured_round(
                RoundCommRecord(
                    task_id=0,
                    round_index=round_index,
                    codec="identity",
                    broadcast_frames=(FrameRecord(0, 100), FrameRecord(1, 100)),
                    upload_frames=(FrameRecord(0, 40), FrameRecord(1, 60, "dropped")),
                )
            )
        assert ledger.rounds == 2 and len(ledger.records) == 2
        assert ledger.uploaded_bytes == 2 * 40
        assert ledger.broadcast_bytes == 2 * 200
        assert ledger.dropped_uploads == 2 and ledger.dropped_upload_bytes == 2 * 60
        assert ledger.total_bytes == ledger.uploaded_bytes + ledger.broadcast_bytes


class TestServerAndLocalTraining:
    def test_server_broadcast_is_a_copy(self):
        model = Linear(3, 2, rng=np.random.default_rng(0))
        server = FederatedServer(model)
        broadcast = server.broadcast()
        broadcast["weight"][...] = 0.0
        assert not np.allclose(server.global_state["weight"], 0.0)

    def test_server_aggregate_updates_model(self):
        model = Linear(2, 2, rng=np.random.default_rng(0))
        server = FederatedServer(model)
        state = server.broadcast()
        shifted = {key: value + 1.0 for key, value in state.items()}
        update = ClientUpdate(client_id=0, state_dict=shifted, num_samples=4)
        server.aggregate([update])
        assert np.allclose(model.weight.data, state["weight"] + 1.0)
        assert server.round_counter == 1
        with pytest.raises(ValueError):
            server.aggregate([])

    def test_run_local_sgd_reduces_loss(self, tiny_spec):
        from repro.datasets.synthetic import generate_domain_split

        data = generate_domain_split(tiny_spec, 0, "train")
        model = Linear(3 * 16 * 16, tiny_spec.num_classes, rng=np.random.default_rng(0))

        def loss_fn(m, images, labels):
            flat = images.reshape(images.shape[0], -1)
            return F.cross_entropy(m(flat), labels)

        client = ClientHandle(
            client_id=0,
            task_id=0,
            group=ClientGroup.NEW,
            dataset=data,
            rng=np.random.default_rng(0),
            training=LocalTrainingConfig(local_epochs=3, batch_size=8, learning_rate=0.1),
        )
        first_loss = run_local_sgd(model, client, loss_fn)
        second_loss = run_local_sgd(model, client, loss_fn)
        assert second_loss < first_loss

    def test_local_training_config_validation(self):
        with pytest.raises(ValueError):
            LocalTrainingConfig(local_epochs=0)
        with pytest.raises(ValueError):
            LocalTrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            LocalTrainingConfig(learning_rate=0.0)
        for kwargs in (
            {"max_grad_norm": -1.0},
            {"max_grad_norm": 0.0},
            {"momentum": -0.5},
            {"momentum": 1.5},
            {"weight_decay": -0.1},
        ):
            with pytest.raises(ValueError):
                LocalTrainingConfig(**kwargs)
        LocalTrainingConfig(max_grad_norm=None, momentum=0.0)  # valid edges
