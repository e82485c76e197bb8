"""End-to-end tests of the kernel plane knob: eager / tape / batched.

The contracts, from strongest to weakest:

* ``kernel="tape"`` is *hash-identical* to eager — every plan's first replay
  is verified bit-for-bit against the eager step and any divergence falls
  back, so the trained numbers cannot move.
* ``kernel="batched"`` reorders float accumulation (stacked matmuls,
  vectorized clip norms) and matches eager to tolerance; clients the
  lockstep engine cannot vectorize (custom ``local_update``, singleton
  groups) fall back to the exact serial path.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.autograd.tape import Plan
from repro.baselines.registry import build_method
from repro.continual import DomainIncrementalScenario
from repro.datasets import SyntheticDomainDataset
from repro.federated import FederatedConfig, FederatedDomainIncrementalSimulation, build_executor
from repro.federated.execution import BatchedExecutor, ParallelExecutor, SerialExecutor
from repro.federated.simulation import SimulationResult


def _simulate(tiny_spec, tiny_backbone_config, config, method_name="finetune"):
    scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
    method = build_method(method_name, tiny_backbone_config, num_tasks=scenario.num_tasks)
    simulation = FederatedDomainIncrementalSimulation(scenario, method, config)
    with simulation:
        result = simulation.run()
    return result, simulation


def _simulate_unoptimized(monkeypatch, *args, **kwargs):
    """``_simulate`` with every plan compiled as ``Plan(..., optimize=False)``.

    Returns ``(result, simulation, plans)``, ``plans`` counting the plans
    compiled in this process.  Fork workers inherit the patch because the
    pool forks inside the run.
    """
    compile_plan = Plan.__init__
    plans = []

    def unoptimized(self, tape, loss, optimize=True):
        plans.append(self)
        compile_plan(self, tape, loss, optimize=False)

    with monkeypatch.context() as patch:
        patch.setattr(Plan, "__init__", unoptimized)
        result, simulation = _simulate(*args, **kwargs)
    assert all(plan.opt is None for plan in plans)
    return result, simulation, len(plans)


def _assert_identical(a: SimulationResult, b: SimulationResult) -> None:
    np.testing.assert_array_equal(a.metrics.matrix, b.metrics.matrix)
    assert a.round_losses == b.round_losses


class TestTapeKernelParity:
    """tape must be bit-for-bit: same accuracies, same round losses."""

    @pytest.mark.parametrize("method_name", ["finetune", "fedlwf"])
    def test_tape_identical_to_eager(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, method_name
    ):
        eager, _ = _simulate(
            tiny_spec, tiny_backbone_config, tiny_federated_config, method_name
        )
        tape, _ = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(tiny_federated_config, kernel="tape"),
            method_name,
        )
        _assert_identical(eager, tape)

    def test_tape_identical_under_parallel_executor(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        # The kernel knob must reach worker processes through the train message.
        eager, _ = _simulate(tiny_spec, tiny_backbone_config, tiny_federated_config)
        tape_parallel, _ = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(
                tiny_federated_config, kernel="tape", executor="parallel", num_workers=2
            ),
        )
        _assert_identical(eager, tape_parallel)

    def test_tape_identical_at_float32(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        eager, _ = _simulate(
            tiny_spec, tiny_backbone_config, replace(tiny_federated_config, dtype="float32")
        )
        tape, _ = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(tiny_federated_config, dtype="float32", kernel="tape"),
        )
        _assert_identical(eager, tape)


def _widened(config):
    """A population where several selected clients share a shard size, so
    lockstep groups of size >= 2 actually form (singletons fall back)."""
    return replace(
        config,
        clients_per_round=3,
        increment=replace(config.increment, initial_clients=6),
    )


class TestBatchedKernelParity:
    def test_batched_matches_eager_within_tolerance(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        wide = _widened(tiny_federated_config)
        eager, _ = _simulate(tiny_spec, tiny_backbone_config, wide)
        batched, simulation = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(wide, kernel="batched"),
        )
        np.testing.assert_allclose(
            batched.metrics.matrix, eager.metrics.matrix, atol=1e-6
        )
        for a, b in zip(eager.round_losses, batched.round_losses):
            assert a == pytest.approx(b, abs=1e-9)
        telemetry = simulation.executor.telemetry
        assert telemetry.lockstep_clients > 0
        assert telemetry.plans_compiled > 0
        assert telemetry.plan_cache_misses == telemetry.plans_compiled
        assert telemetry.plan_cache_hits + telemetry.plan_cache_misses > 0
        assert telemetry.plan_cache_evictions == 0

    def test_batched_fedlwf_with_teacher(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        # Task 1 carries a frozen teacher (unnamed trainable leaves in the
        # traced graph) — the lockstep engine must still vectorize it.
        wide = _widened(tiny_federated_config)
        eager, _ = _simulate(tiny_spec, tiny_backbone_config, wide, "fedlwf")
        batched, simulation = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(wide, kernel="batched"),
            "fedlwf",
        )
        np.testing.assert_allclose(
            batched.metrics.matrix, eager.metrics.matrix, atol=1e-6
        )
        assert simulation.executor.telemetry.lockstep_clients > 0

    def test_batched_refil_falls_back_exactly(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        # refil overrides local_update, so every client takes the serial
        # fallback — which is the *exact* eager path, not a tolerance match.
        eager, _ = _simulate(
            tiny_spec, tiny_backbone_config, tiny_federated_config, "refil"
        )
        batched, simulation = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(tiny_federated_config, kernel="batched"),
            "refil",
        )
        _assert_identical(eager, batched)
        telemetry = simulation.executor.telemetry
        assert telemetry.lockstep_clients == 0
        assert telemetry.plans_compiled == 0


class TestPlanOptimizeParity:
    """The plan optimizer may never move a number: optimized tape runs are
    hash-identical to unoptimized ones (and to eager), under every executor
    and dtype; optimized lockstep replay is bit-for-bit with unoptimized
    lockstep replay."""

    def test_tape_optimized_identical_to_unoptimized_and_eager(
        self, monkeypatch, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        eager, _ = _simulate(tiny_spec, tiny_backbone_config, tiny_federated_config)
        tape_config = replace(tiny_federated_config, kernel="tape")
        tape_on, _ = _simulate(tiny_spec, tiny_backbone_config, tape_config)
        tape_off, _, compiled = _simulate_unoptimized(
            monkeypatch, tiny_spec, tiny_backbone_config, tape_config
        )
        assert compiled > 0
        _assert_identical(tape_on, tape_off)
        _assert_identical(tape_on, eager)

    def test_tape_optimized_identical_at_float32(
        self, monkeypatch, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        config = replace(tiny_federated_config, dtype="float32", kernel="tape")
        on, _ = _simulate(tiny_spec, tiny_backbone_config, config)
        off, _, compiled = _simulate_unoptimized(
            monkeypatch, tiny_spec, tiny_backbone_config, config
        )
        assert compiled > 0
        _assert_identical(on, off)

    def test_tape_optimized_identical_under_parallel_executor(
        self, monkeypatch, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        # Plans compile inside the worker processes here.
        config = replace(
            tiny_federated_config, kernel="tape", executor="parallel", num_workers=2
        )
        on, _ = _simulate(tiny_spec, tiny_backbone_config, config)
        off, _, _ = _simulate_unoptimized(
            monkeypatch, tiny_spec, tiny_backbone_config, config
        )
        _assert_identical(on, off)

    def test_batched_optimized_identical_to_unoptimized(
        self, monkeypatch, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        # Optimized batched replay runs the same ops in the same order with
        # the same stacked operands, so it is exactly equal (not tolerance).
        config = replace(_widened(tiny_federated_config), kernel="batched")
        on, sim_on = _simulate(tiny_spec, tiny_backbone_config, config)
        off, sim_off, compiled = _simulate_unoptimized(
            monkeypatch, tiny_spec, tiny_backbone_config, config
        )
        assert compiled > 0
        _assert_identical(on, off)
        telemetry = sim_on.executor.telemetry
        assert telemetry.lockstep_clients > 0
        assert telemetry.plan_cache_misses == telemetry.plans_compiled
        assert telemetry.plan_cache_hits + telemetry.plan_cache_misses > 0
        assert telemetry.plan_cache_evictions == 0
        assert (
            sim_off.executor.telemetry.lockstep_clients == telemetry.lockstep_clients
        )


class TestKernelConfigSurface:
    def test_config_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            FederatedConfig(kernel="jit")

    def test_config_rejects_batched_with_parallel_executor(self):
        with pytest.raises(ValueError, match="serial"):
            FederatedConfig(kernel="batched", executor="parallel", num_workers=2)

    def test_build_executor_kernel_routing(self):
        assert isinstance(build_executor("serial", kernel="batched"), BatchedExecutor)
        assert isinstance(build_executor("serial", kernel="tape"), SerialExecutor)
        parallel = build_executor("parallel", 2, kernel="tape")
        try:
            assert isinstance(parallel, ParallelExecutor)
            assert parallel.kernel == "tape"
        finally:
            parallel.close()
        with pytest.raises(ValueError):
            build_executor("parallel", 2, kernel="batched")
        with pytest.raises(ValueError):
            build_executor("serial", kernel="jit")

    def test_scaled_config_threads_kernel(self):
        from repro.experiments.config import scaled_config

        config = scaled_config("office_caltech", kernel="batched")
        assert config.federated.kernel == "batched"

    def test_runner_folds_tape_keeps_batched(self):
        from repro.experiments.runner import _normalize_execution_knobs

        base = FederatedConfig()
        assert _normalize_execution_knobs(replace(base, kernel="tape")).kernel == "eager"
        assert _normalize_execution_knobs(replace(base, kernel="eager")).kernel == "eager"
        assert (
            _normalize_execution_knobs(replace(base, kernel="batched")).kernel == "batched"
        )

    def test_runner_folds_trajectory_free_knobs(self):
        from repro.experiments.runner import _normalize_execution_knobs

        base = FederatedConfig()
        for kernel in ("eager", "tape", "batched"):
            knobs = dict(kernel=kernel, shard_cache=False, eval_executor="parallel")
            if kernel != "batched":
                knobs.update(executor="parallel", num_workers=2)
            assert _normalize_execution_knobs(
                replace(base, **knobs)
            ) == _normalize_execution_knobs(replace(base, kernel=kernel))


class TestBitwiseVerifier:
    def test_nan_step_verifies_instead_of_demoting_to_eager(self):
        # A replay that reproduces a NaN loss and NaN gradients bit for bit
        # is a faithful replay; NaN != NaN must not demote the shape for good.
        from repro.autograd import Tensor, functional as F
        from repro.autograd.tape import Plan, Tape, tracing
        from repro.federated.client import _PlanState, _verify_step
        from repro.nn.linear import Linear

        rng = np.random.default_rng(0)
        model = Linear(4, 3, rng=rng)
        model.weight.data[0, 0] = np.nan
        images = Tensor(rng.standard_normal((5, 4)))
        labels = np.array([0, 1, 2, 0, 1], dtype=np.int64)

        def loss_fn(m, x, y):
            return F.cross_entropy(m(x), y)

        tape = Tape()
        tape.register_dynamic("labels", labels)
        tape.mark_input("images", images)
        with tracing(tape):
            loss = loss_fn(model, images, labels)
        state = _PlanState(Plan(tape, loss))
        assert np.isnan(loss.data)

        _verify_step(state, model, {}, loss_fn, images, labels)
        assert state.verified and not state.bad


def _nan_clients(image_size, nan_client, count=2, samples=16):
    """Task-1, round-3 clients whose shards share a size; ``nan_client``'s
    last-drawn sample is NaN, so its loss first turns non-finite on the last
    step (a replay step under ``kernel="tape"``: step 1 traces, step 2
    verifies)."""
    from repro.datasets.base import ArrayDataset
    from repro.federated.client import ClientHandle, LocalTrainingConfig
    from repro.federated.increment import ClientGroup

    clients = []
    for client_id in range(count):
        data_rng = np.random.default_rng(100 + client_id)
        images = data_rng.uniform(0.0, 1.0, size=(samples, 3, image_size, image_size))
        labels = data_rng.integers(0, 3, size=samples)
        if client_id == nan_client:
            order = np.arange(samples)
            np.random.default_rng(200 + client_id).shuffle(order)  # the loader's draw
            images[order[-1]] = np.nan
        clients.append(
            ClientHandle(
                client_id=client_id,
                task_id=1,
                group=ClientGroup.NEW,
                dataset=ArrayDataset(images, labels),
                rng=np.random.default_rng(200 + client_id),
                training=LocalTrainingConfig(local_epochs=1, batch_size=4, learning_rate=0.05),
                metadata={"round_index": 3.0},
            )
        )
    return clients


def _all_finite(model) -> bool:
    return all(np.isfinite(p.data).all() for p in model.parameters())


class TestNonFiniteLoss:
    """Every local loop raises NonFiniteLossError at the first step whose
    loss is NaN/inf, before that step's optimizer update."""

    @staticmethod
    def _check(error, client_id):
        assert error.client_id == client_id
        assert error.task_id == 1
        assert error.round_index == 3
        assert not np.isfinite(error.loss)

    @pytest.mark.parametrize("kernel", ["eager", "tape"])
    def test_run_local_sgd_raises(self, tiny_backbone_config, kernel):
        from repro.autograd import functional as F
        from repro.autograd.tape import kernel_mode
        from repro.federated import NonFiniteLossError, run_local_sgd

        model = build_method("finetune", tiny_backbone_config, num_tasks=2).build_model()
        (client,) = _nan_clients(tiny_backbone_config.image_size, 0, count=1)
        with kernel_mode(kernel), pytest.raises(NonFiniteLossError) as raised:
            run_local_sgd(model, client, lambda m, x, y: F.cross_entropy(m(x), y))
        self._check(raised.value, 0)
        assert _all_finite(model)

    def test_batched_lockstep_raises(self, tiny_backbone_config):
        from repro.autograd.tape import kernel_mode
        from repro.federated import NonFiniteLossError
        from repro.federated.server import FederatedServer

        method = build_method("finetune", tiny_backbone_config, num_tasks=2)
        model = method.build_model()
        server = FederatedServer(model)
        executor = build_executor("serial", kernel="batched")
        clients = _nan_clients(tiny_backbone_config.image_size, 1)
        with kernel_mode("batched"), pytest.raises(NonFiniteLossError) as raised:
            executor.run_round(method, model, server.broadcast_view(), clients)
        self._check(raised.value, 1)
        assert executor.telemetry.plans_compiled == 1  # raised inside lockstep
        assert _all_finite(model)

    def test_refil_local_update_raises(self, tiny_backbone_config):
        from repro.core.client import RefFiLClientTrainer
        from repro.core.dpcl import DPCLConfig
        from repro.core.model import RefFiLModel
        from repro.core.prompts import GlobalPromptStore
        from repro.federated import NonFiniteLossError

        model = RefFiLModel(tiny_backbone_config, prompt_length=3, max_tasks=4)
        store = GlobalPromptStore(tiny_backbone_config.num_classes, model.embed_dim)
        (client,) = _nan_clients(tiny_backbone_config.image_size, 0, count=1)
        with pytest.raises(NonFiniteLossError) as raised:
            RefFiLClientTrainer(DPCLConfig()).local_update(model, store, client)
        self._check(raised.value, 0)
        assert _all_finite(model)

    def test_error_survives_pickling(self):
        # Parallel workers ship a failure to the coordinator by pickling it.
        import pickle

        from repro.federated import NonFiniteLossError

        error = pickle.loads(pickle.dumps(NonFiniteLossError(4, 2, 7, float("inf"))))
        assert (error.client_id, error.task_id, error.round_index, error.loss) == (
            4,
            2,
            7,
            float("inf"),
        )
        assert "client 4 (task 2, round 7)" in str(error)


class TestFusedBatchNormUnderTape:
    def test_resnet_tape_run_compiles_and_verifies_every_plan(
        self, monkeypatch, tiny_backbone_config
    ):
        # Batch norm's stats op, running-stat effect and fused op must replay
        # bit for bit: no plan may fail to compile or be demoted to eager.
        from repro.autograd import functional as F
        from repro.autograd.tape import kernel_mode
        from repro.federated import client as client_mod

        states = []

        class RecordingState(client_mod._PlanState):
            __slots__ = ()

            def __init__(self, plan):
                super().__init__(plan)
                states.append(self)

        monkeypatch.setattr(client_mod, "_PlanState", RecordingState)
        model = build_method("finetune", tiny_backbone_config, num_tasks=2).build_model()
        (client,) = _nan_clients(tiny_backbone_config.image_size, None, count=1)
        with kernel_mode("tape"):
            client_mod.run_local_sgd(model, client, lambda m, x, y: F.cross_entropy(m(x), y))
        assert len(states) == 1
        assert all(state.verified and not state.bad for state in states)
        ops = [rec.op for rec in states[0].plan.records]
        assert ops.count(F.BATCH_NORM) == ops.count(F.BN_STATS) == ops.count(F.BN_UPDATE) > 0
