"""Tests of the communication plane: codecs, payload codecs, ledger, transport.

The plane's central guarantee — lossless codecs are results-invariant — is
enforced at three levels: property tests that every lossless codec
round-trips arbitrary state dicts bit-exactly (all dtypes and shapes, empty
and scalar tensors, NaNs); a unit oracle that the transport under a lossless
codec hands clients and the server exactly the arrays it was given; and
end-to-end parity of whole simulations run through ``delta`` against
``identity``, across executors and compute dtypes — the equivalence the run
cache's lossless-codec fold relies on.  Ledger numbers are checked to be
sums of actual encoded frame lengths and to reconcile with the parallel
executor's ``RoundIPC`` where both observe the same broadcast bytes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import bits_equal
from repro.baselines.registry import build_method
from repro.continual import DomainIncrementalScenario
from repro.core.method import RefFiLPromptCodec
from repro.datasets import SyntheticDomainDataset
from repro.federated import (
    CommunicationLedger,
    ClientUpdate,
    FederatedConfig,
    FederatedDomainIncrementalSimulation,
    FederatedServer,
    Transport,
    TreePayloadCodec,
    build_codec,
    codec_is_lossless,
)
from repro.federated.communication import decode_frame, encode_frame
from repro.nn.linear import Linear

# --------------------------------------------------------------------------- #
# Hypothesis strategies: arbitrary state dicts
# --------------------------------------------------------------------------- #

_DTYPES = (np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_)
_SHAPES = ((), (0,), (1,), (7,), (3, 4), (2, 0), (2, 3, 2))


@st.composite
def state_dicts(draw):
    """Flat name -> array dicts over all dtypes/shapes, empty and scalar included."""
    num = draw(st.integers(0, 4))
    state = {}
    for index in range(num):
        dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
        shape = draw(st.sampled_from(_SHAPES))
        seed = draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        if dtype.kind == "f":
            values = rng.standard_normal(shape).astype(dtype)
            if values.size and draw(st.booleans()):
                flat = values.reshape(-1)
                flat[draw(st.integers(0, values.size - 1))] = np.nan
        elif dtype.kind == "b":
            values = rng.integers(0, 2, size=shape).astype(dtype)
        else:
            values = rng.integers(0, 100, size=shape).astype(dtype)
        state[f"layer_{index}"] = values
    return state


def _mutate(state: dict, rng: np.random.Generator) -> dict:
    """A plausible next-round version of ``state``: some arrays nudged, some kept."""
    out = {}
    for key, value in state.items():
        value = value.copy()
        if value.size and rng.random() < 0.7:
            flat = value.reshape(-1)
            index = int(rng.integers(0, value.size))
            if value.dtype.kind == "f":
                flat[index] = flat[index] * 2 + 1 if np.isfinite(flat[index]) else 0.0
            elif value.dtype.kind == "b":
                flat[index] = ~flat[index]
            else:
                flat[index] = flat[index] + 1
        out[key] = value
    return out


def _assert_bit_exact(left: dict, right: dict) -> None:
    assert list(left) == list(right)
    for key in left:
        a, b = np.asarray(left[key]), np.asarray(right[key])
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert a.tobytes() == b.tobytes(), key


class TestLosslessCodecRoundTrip:
    @pytest.mark.parametrize("spec", ["identity", "delta"])
    @given(state=state_dicts(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_without_reference(self, spec, state, seed):
        codec = build_codec(spec)
        frame = encode_frame("upload", codec, state, meta=None)
        decoded, _ = decode_frame(frame, codec)
        _assert_bit_exact(state, decoded)

    @given(state=state_dicts(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_delta_round_trip_against_reference(self, state, seed):
        codec = build_codec("delta")
        rng = np.random.default_rng(seed)
        new = _mutate(state, rng)
        frame = encode_frame("upload", codec, new, meta=None, reference=state)
        decoded, _ = decode_frame(frame, codec, reference=state)
        _assert_bit_exact(new, decoded)

    @given(state=state_dicts())
    @settings(max_examples=15, deadline=None)
    def test_delta_against_itself_ships_almost_nothing(self, state):
        codec = build_codec("delta")
        unchanged = {key: value.copy() for key, value in state.items()}
        full = encode_frame("upload", codec, state, meta=None).num_bytes
        same = encode_frame("upload", codec, unchanged, meta=None, reference=state).num_bytes
        nonempty = sum(v.size for v in state.values())
        if nonempty:
            # NaNs compare unequal to themselves, so they legitimately re-ship.
            has_nan = any(
                v.dtype.kind == "f" and np.isnan(v).any() for v in state.values()
            )
            if not has_nan:
                assert same <= full
        decoded, _ = decode_frame(
            encode_frame("upload", codec, unchanged, meta=None, reference=state),
            codec,
            reference=state,
        )
        _assert_bit_exact(unchanged, decoded)

    def test_lossless_flags(self):
        assert codec_is_lossless("identity") and codec_is_lossless("delta")
        assert not codec_is_lossless("quantize8")
        assert not codec_is_lossless("topk")


class TestLossyCodecs:
    def _state(self):
        rng = np.random.default_rng(0)
        return {
            "w": rng.standard_normal((16, 8)),
            "b": rng.standard_normal(8).astype(np.float32),
            "steps": np.arange(5, dtype=np.int64),
            "flat": np.full((4,), 3.5),
            "empty": np.zeros((0, 2)),
        }

    @pytest.mark.parametrize("spec,bits", [("quantize8", 8), ("quantize16", 16)])
    def test_quantize_bounds_error_and_preserves_structure(self, spec, bits):
        codec = build_codec(spec)
        state = self._state()
        decoded, _ = decode_frame(encode_frame("u", codec, state, None), codec)
        for key in state:
            assert decoded[key].dtype == state[key].dtype
            assert decoded[key].shape == state[key].shape
        # Non-float and constant arrays survive exactly.
        np.testing.assert_array_equal(decoded["steps"], state["steps"])
        np.testing.assert_array_equal(decoded["flat"], state["flat"])
        for key in ("w", "b"):
            span = float(state[key].max() - state[key].min())
            step = span / (2**bits - 1)
            assert np.abs(decoded[key] - state[key]).max() <= step

    def test_quantize8_compresses_float64(self):
        codec = build_codec("quantize8")
        state = {"w": np.random.default_rng(0).standard_normal((64, 64))}
        raw = encode_frame("u", build_codec("identity"), state, None).num_bytes
        packed = encode_frame("u", codec, state, None).num_bytes
        assert raw / packed >= 4.0

    def test_topk_keeps_largest_changes_exactly(self):
        codec = build_codec("topk:0.25")
        base = {"w": np.zeros(16)}
        new = {"w": np.zeros(16)}
        new["w"][[3, 8, 11]] = [5.0, -7.0, 2.0]
        decoded, _ = decode_frame(
            encode_frame("u", codec, new, None, reference=base), codec, reference=base
        )
        # 25% of 16 = 4 kept positions: the three real changes survive exactly.
        np.testing.assert_array_equal(decoded["w"][[3, 8, 11]], new["w"][[3, 8, 11]])
        assert decoded["w"].shape == (16,)

    def test_topk_without_reference_ships_dense(self):
        codec = build_codec("topk")
        state = {"w": np.random.default_rng(1).standard_normal(32)}
        decoded, _ = decode_frame(encode_frame("u", codec, state, None), codec)
        np.testing.assert_array_equal(decoded["w"], state["w"])

    def test_codec_spec_validation(self):
        with pytest.raises(ValueError):
            build_codec("gzip")
        with pytest.raises(ValueError):
            build_codec("topk:1.5")
        with pytest.raises(ValueError):
            build_codec("topk:abc")
        assert build_codec("topk:0.05").fraction == 0.05


class TestPayloadCodecs:
    def test_tree_codec_round_trips_nested_payloads(self):
        codec = TreePayloadCodec()
        payload = {
            "prompt_groups": {"0": np.arange(4.0), "2": np.ones(4)},
            "nested": [np.zeros((2, 2)), {"deep": np.arange(3)}, "text", 7],
            0: np.ones(1),  # int key must not collide with the str key "0"
            "0": np.zeros(1),
            "scalars": (1.5, None, True),
        }
        arrays, skeleton = codec.flatten(payload)
        rebuilt = codec.unflatten(arrays, skeleton)
        assert rebuilt.keys() == payload.keys()
        np.testing.assert_array_equal(rebuilt[0], payload[0])
        np.testing.assert_array_equal(rebuilt["0"], payload["0"])
        np.testing.assert_array_equal(
            rebuilt["prompt_groups"]["2"], payload["prompt_groups"]["2"]
        )
        assert rebuilt["nested"][2:] == ["text", 7]
        assert rebuilt["scalars"] == payload["scalars"]

    def test_reffil_codec_stacks_prompt_groups(self):
        codec = RefFiLPromptCodec()
        payload = {
            "prompt_groups": {"2": np.arange(8.0), "0": np.arange(8.0) * 2}
        }
        arrays, skeleton = codec.flatten(payload)
        assert set(arrays) == {"lpg/labels", "lpg/vectors"}
        assert arrays["lpg/vectors"].shape == (2, 8)
        rebuilt = codec.unflatten(arrays, skeleton)
        assert list(rebuilt["prompt_groups"]) == ["2", "0"]  # order preserved
        for key in payload["prompt_groups"]:
            np.testing.assert_array_equal(
                rebuilt["prompt_groups"][key], payload["prompt_groups"][key]
            )

    def test_reffil_codec_stacks_the_store(self):
        codec = RefFiLPromptCodec()
        payload = {
            "class_1": np.random.default_rng(0).standard_normal((3, 8)),
            "class_0": np.random.default_rng(1).standard_normal((1, 8)),
        }
        arrays, skeleton = codec.flatten(payload)
        assert set(arrays) == {"gps/labels", "gps/counts", "gps/vectors"}
        assert arrays["gps/vectors"].shape == (4, 8)
        rebuilt = codec.unflatten(arrays, skeleton)
        assert list(rebuilt) == ["class_1", "class_0"]
        for key in payload:
            np.testing.assert_array_equal(rebuilt[key], payload[key])

    def test_reffil_codec_falls_back_on_unknown_payloads(self):
        codec = RefFiLPromptCodec()
        for payload in (
            {},
            {"prompt_groups": {}},
            {"prompt_groups": {"x": np.zeros(3)}},
            {"prompt_groups": {"--1": np.zeros(3)}},  # non-canonical int key
            {"class_1": np.zeros((2, 4)), "class_--3": np.zeros((2, 4))},
            {"class_1": np.zeros((2, 4)), "other": np.zeros(2)},
            {"fisher": np.ones((2, 2))},
        ):
            arrays, skeleton = codec.flatten(payload)
            rebuilt = codec.unflatten(arrays, skeleton)
            assert rebuilt.keys() == payload.keys()


class TestLosslessTransportOracle:
    """Under a lossless codec the wire hands over exactly what it was given."""

    @pytest.mark.parametrize("spec", ["identity", "delta"])
    def test_broadcast_and_uploads_are_bits_equal_to_their_inputs(self, spec):
        server = FederatedServer(Linear(3, 2, rng=np.random.default_rng(0)))
        server.global_state["weight"][0, :2] = (np.nan, np.inf)  # NaN must match itself
        server.set_broadcast_payload({"prompts": {0: np.arange(4.0)}})
        transport = Transport(CommunicationLedger(), build_codec(spec))
        for round_index in range(2):  # the second round delta-encodes against acks
            handle = transport.broadcast_round(server, [0, 1], 0, round_index)
            assert list(handle.state) == list(server.global_state)
            for key, value in server.global_state.items():
                assert bits_equal(handle.state[key], value), key
            assert bits_equal(handle.payload["prompts"][0], np.arange(4.0))
            updates = [
                ClientUpdate(
                    client_id=cid,
                    state_dict={k: v + cid for k, v in server.global_state.items()},
                    num_samples=5 + cid,
                    payload={"prompts": {0: np.full(4, float(cid))}},
                    train_loss=0.5,
                )
                for cid in (0, 1)
            ]
            delivered = transport.collect_updates(updates)
            assert [u.client_id for u in delivered] == [0, 1]
            for sent, got in zip(updates, delivered):
                assert list(got.state_dict) == list(sent.state_dict)
                for key, value in sent.state_dict.items():
                    assert bits_equal(got.state_dict[key], value), key
                assert bits_equal(got.payload["prompts"][0], sent.payload["prompts"][0])
                assert (got.num_samples, got.train_loss) == (sent.num_samples, sent.train_loss)
        assert transport.ledger.rounds == 2


# --------------------------------------------------------------------------- #
# End-to-end: whole simulations through the wire format
# --------------------------------------------------------------------------- #


def _run(tiny_spec, tiny_backbone_config, config, method_name="refil"):
    scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
    method = build_method(method_name, tiny_backbone_config, num_tasks=scenario.num_tasks)
    return FederatedDomainIncrementalSimulation(scenario, method, config).run()


@pytest.fixture
def comm_config(tiny_federated_config):
    # Two rounds per task so delta acks and straggler deferral have a next
    # round to land in.
    return replace(tiny_federated_config, rounds_per_task=2)


class TestTransportParity:
    def test_delta_matches_identity_bit_for_bit(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        identity = _run(tiny_spec, tiny_backbone_config, comm_config)
        delta = _run(tiny_spec, tiny_backbone_config, replace(comm_config, codec="delta"))
        assert bits_equal(identity.metrics.matrix, delta.metrics.matrix)
        assert bits_equal(identity.round_losses, delta.round_losses)
        assert identity.round_loss_components == delta.round_loss_components

    def test_delta_parity_parallel_executor_float32(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        base = replace(comm_config, dtype="float32", executor="parallel", num_workers=2)
        identity = _run(tiny_spec, tiny_backbone_config, base)
        delta = _run(tiny_spec, tiny_backbone_config, replace(base, codec="delta"))
        assert bits_equal(identity.metrics.matrix, delta.metrics.matrix)
        assert bits_equal(identity.round_losses, delta.round_losses)
        assert identity.round_loss_components == delta.round_loss_components

    def test_ledger_totals_are_sums_of_frame_lengths(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        result = _run(tiny_spec, tiny_backbone_config, replace(comm_config, codec="delta"))
        ledger = result.communication
        assert len(ledger.records) == ledger.rounds
        assert ledger.uploaded_bytes == sum(
            frame.num_bytes
            for record in ledger.records
            for frame in record.upload_frames
            if frame.status != "dropped"
        )
        assert ledger.broadcast_bytes == sum(
            frame.num_bytes
            for record in ledger.records
            for frame in record.broadcast_frames
        )
        # Every selected client is charged a download every round.
        for record in ledger.records:
            assert len(record.broadcast_frames) == comm_config.clients_per_round

    def test_ledger_reconciles_with_round_ipc(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        """Where ledger and executor observe the same traffic, the bytes agree.

        Under the identity codec the broadcast wire frame *is* the serialized
        blob the pinned pool ships to each worker, so per-round:
        ``frame_bytes * num_messages == RoundIPC.broadcast_bytes``.
        """
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        method = build_method("refil", tiny_backbone_config, num_tasks=2)
        simulation = FederatedDomainIncrementalSimulation(
            scenario,
            method,
            replace(comm_config, executor="parallel", num_workers=2),
        )
        result = simulation.run()
        ledger = result.communication
        ipc_log = simulation.executor.ipc_log
        assert len(ipc_log) == len(ledger.records)
        for record, ipc in zip(ledger.records, ipc_log):
            frame_bytes = {frame.num_bytes for frame in record.broadcast_frames}
            assert len(frame_bytes) == 1  # identity: one frame serves the round
            assert frame_bytes.pop() * ipc.num_messages == ipc.broadcast_bytes

    def test_quantized_run_compresses_and_still_learns(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        identity = _run(tiny_spec, tiny_backbone_config, comm_config)
        quantized = _run(
            tiny_spec, tiny_backbone_config, replace(comm_config, codec="quantize8")
        )
        assert (
            identity.communication.uploaded_bytes
            >= 4 * quantized.communication.uploaded_bytes
        )
        assert np.isfinite(quantized.metrics.average)
        assert all(np.isfinite(loss) for loss in quantized.round_losses)


class TestBandwidthScenarios:
    def _frame_bytes(self, tiny_spec, tiny_backbone_config, comm_config):
        result = _run(tiny_spec, tiny_backbone_config, comm_config)
        record = result.communication.records[0]
        return record.upload_frames[0].num_bytes

    def test_drop_stragglers_is_deterministic_and_keeps_one(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        frame = self._frame_bytes(tiny_spec, tiny_backbone_config, comm_config)
        config = replace(comm_config, bandwidth_limit=frame, drop_stragglers=True)
        first = _run(tiny_spec, tiny_backbone_config, config)
        second = _run(tiny_spec, tiny_backbone_config, config)
        ledger = first.communication
        # The per-client multipliers straddle 1.0, so a frame-sized budget
        # must split the population: some drops, never a whole round.
        assert ledger.dropped_uploads > 0
        assert ledger.dropped_upload_bytes > 0
        for record in ledger.records:
            assert any(f.status != "dropped" for f in record.upload_frames)
        np.testing.assert_array_equal(first.metrics.matrix, second.metrics.matrix)
        assert first.round_losses == second.round_losses
        assert (
            first.communication.dropped_uploads == second.communication.dropped_uploads
        )

    def test_deferred_uploads_arrive_next_round_and_expire_at_task_end(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        frame = self._frame_bytes(tiny_spec, tiny_backbone_config, comm_config)
        config = replace(comm_config, bandwidth_limit=frame, drop_stragglers=False)
        result = _run(tiny_spec, tiny_backbone_config, config)
        ledger = result.communication
        assert ledger.dropped_uploads == 0
        assert ledger.deferred_uploads + ledger.expired_uploads > 0
        deferred_seen = [
            sum(1 for f in record.upload_frames if f.status == "deferred")
            for record in ledger.records
        ]
        # A deferral can never land in the first round of a task.
        rounds_per_task = config.rounds_per_task
        for task_first in range(0, len(deferred_seen), rounds_per_task):
            assert deferred_seen[task_first] == 0
        # Full coverage: every encoded upload is delivered, deferred-then-
        # delivered, or expired (finalize() accounts end-of-run leftovers) —
        # nothing vanishes from the books.
        total_uploads = sum(len(r.upload_frames) for r in ledger.records)
        assert total_uploads + ledger.expired_uploads == sum(
            len(r.broadcast_frames) for r in ledger.records
        )

    def test_run_cache_keeps_codec_distinct_under_bandwidth_limits(self):
        """Lossless codecs fold together in the run cache ONLY without a budget:
        with one, drop/defer outcomes depend on codec frame sizes."""
        from repro.experiments.runner import _normalize_execution_knobs

        free_delta = _normalize_execution_knobs(FederatedConfig(codec="delta"))
        free_identity = _normalize_execution_knobs(FederatedConfig(codec="identity"))
        assert free_delta == free_identity
        limited_delta = _normalize_execution_knobs(
            FederatedConfig(codec="delta", bandwidth_limit=1000, drop_stragglers=True)
        )
        limited_identity = _normalize_execution_knobs(
            FederatedConfig(codec="identity", bandwidth_limit=1000, drop_stragglers=True)
        )
        assert limited_delta != limited_identity

    def test_budget_seeding_is_per_client_and_deterministic(self):
        ledger = CommunicationLedger()
        make = lambda: Transport(ledger, build_codec("identity"), seed=3, bandwidth_limit=1000)
        first, second = make(), make()
        budgets = {cid: first.budget_for(cid) for cid in range(8)}
        assert budgets == {cid: second.budget_for(cid) for cid in range(8)}
        assert len(set(budgets.values())) > 1  # heterogeneous population

    def test_config_validation(self):
        from repro.experiments.config import scaled_config

        with pytest.raises(ValueError):
            FederatedConfig(codec="gzip")
        with pytest.raises(ValueError):
            FederatedConfig(bandwidth_limit=-1)
        with pytest.raises(TypeError):  # one wire path: there is no transport knob
            scaled_config("office_caltech", transport="loopback")
        FederatedConfig(codec="topk:0.05")  # parameterised specs are valid
