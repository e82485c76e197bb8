"""Fig. 2: per-component cost of one RefFiL client training step.

Fig. 2 is the framework diagram (feature extractor -> CDAP -> L_CE / L_GPL /
L_DPCL -> upload).  This bench measures the wall-clock cost of one mini-batch
through that pipeline and of a full client local update, which is the quantity
a deployment on resource-constrained devices cares about.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import default_dtype
from repro.core import RefFiLConfig, RefFiLMethod
from repro.datasets.registry import get_dataset_spec
from repro.datasets.synthetic import generate_domain_split
from repro.federated.client import ClientHandle, LocalTrainingConfig
from repro.federated.increment import ClientGroup
from repro.federated.server import FederatedServer
from repro.models.backbone import BackboneConfig
from repro.utils.timing import Timer


def _build_step():
    spec = get_dataset_spec("office_caltech").scaled(
        train_per_domain=32, test_per_domain=16, num_classes=4
    )
    backbone = BackboneConfig(image_size=spec.image_size, num_classes=spec.num_classes,
                              base_width=8, embed_dim=32, seed=0)
    method = RefFiLMethod(RefFiLConfig(backbone=backbone, max_tasks=4))
    model = method.build_model()
    server = FederatedServer(model)
    data = generate_domain_split(spec, 0, "train")
    client = ClientHandle(
        client_id=0,
        task_id=0,
        group=ClientGroup.NEW,
        dataset=data,
        rng=np.random.default_rng(0),
        training=LocalTrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.05),
    )
    return method, model, server, client


def test_fig2_pipeline_local_update(benchmark):
    method, model, server, client = _build_step()

    def one_local_update():
        return method.local_update(model, server.broadcast(), server.broadcast_payload, client)

    update = benchmark.pedantic(one_local_update, rounds=3, iterations=1, warmup_rounds=1)
    print(f"\nFig.2 pipeline: one client local update over {client.num_samples} samples")
    print(f"  uploaded state arrays : {len(update.state_dict)}")
    print(f"  uploaded prompt groups: {len(update.payload['prompt_groups'])}")
    assert update.num_samples == client.num_samples
    assert update.payload["prompt_groups"]


def test_fig2_pipeline_float32_vs_float64(benchmark, bench_record):
    """The same local update at both compute precisions (the ``dtype`` knob).

    float32 halves the memory bandwidth of every conv / matmul in the
    pipeline, which is the dominant cost on CPU; the measured speedup and the
    loss agreement between precisions are recorded in ``BENCH_round.json``.
    """
    timer = Timer()
    reps = 3
    losses = {}

    def run_at(dtype_name):
        with default_dtype(dtype_name):
            method, model, server, client = _build_step()
            # Warm-up outside the timed region (first call touches cold caches).
            method.local_update(model, server.broadcast(), server.broadcast_payload, client)
            for _ in range(reps):
                with timer.measure(dtype_name):
                    update = method.local_update(
                        model, server.broadcast(), server.broadcast_payload, client
                    )
            losses[dtype_name] = update.train_loss

    benchmark.pedantic(lambda: (run_at("float64"), run_at("float32")),
                       rounds=1, iterations=1, warmup_rounds=0)

    t64 = timer.mean("float64")
    t32 = timer.mean("float32")
    speedup = t64 / t32 if t32 > 0 else float("inf")
    bench_record(
        "fig2_precision",
        {
            "float64_step_s": t64,
            "float32_step_s": t32,
            "speedup": speedup,
            "float64_loss": losses["float64"],
            "float32_loss": losses["float32"],
        },
    )
    print(f"\nFig.2 pipeline precision (mean of {reps} local updates):")
    print(f"  float64 : {t64 * 1000:.1f} ms  (loss {losses['float64']:.4f})")
    print(f"  float32 : {t32 * 1000:.1f} ms  (loss {losses['float32']:.4f})")
    print(f"  speedup : {speedup:.2f}x")
    # Precisions must agree on the training trajectory to well within SGD noise.
    assert abs(losses["float64"] - losses["float32"]) < 1e-2
