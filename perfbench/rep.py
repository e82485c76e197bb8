"""One repetition of one workload, in the fresh interpreter ``run.py`` starts.

Builds the simulation (the set-up the benchmark times from process spawn),
runs it, checks what it can check alone, and writes one JSON result file.
With ``--trace-dir`` the layer wrappers of :mod:`tracer` are installed before
set-up and the result also carries the per-layer values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _hex(value: float) -> str:
    return float(value).hex()


def _count_dispatch_and_delivery(executor_cls, method_cls, tally):
    """Class-level wrappers counting what the executor is given and what aggregation receives."""
    run_round = executor_cls.run_round
    aggregate = method_cls.aggregate

    def counted_run_round(self, method, model, broadcast, clients):
        tally["dispatched"] += len(clients)
        tally["samples"] += sum(c.num_samples * c.training.local_epochs for c in clients)
        return run_round(self, method, model, broadcast, clients)

    def counted_aggregate(self, server, updates):
        tally["delivered"] += len(updates)
        return aggregate(self, server, updates)

    executor_cls.run_round = counted_run_round
    method_cls.aggregate = counted_aggregate


def _states_equal(a, b) -> bool:
    import numpy as np

    return sorted(a) == sorted(b) and all(
        a[k].dtype == b[k].dtype
        and a[k].shape == b[k].shape
        and np.ascontiguousarray(a[k]).tobytes() == np.ascontiguousarray(b[k]).tobytes()
        for k in a
    )


def _verify_durable(sim, method, errors) -> None:
    """The newest registry version and the last checkpoint load CRC-clean and equal the final state."""
    from repro.federated.checkpoint import latest_checkpoint, load_checkpoint
    from repro.federated.transport import _split_message
    from repro.serving.registry import ModelRegistry

    final = sim.server.global_state
    loaded = ModelRegistry(sim.config.registry_dir).load(payload_codec=method.payload_codec())
    if not _states_equal(loaded.state, final):
        errors.append("latest registry version does not match the final global state")
    path = latest_checkpoint(sim.config.checkpoint_dir)
    if path is None:
        errors.append("no checkpoint was written")
        return
    server = load_checkpoint(path)["server"]
    state, _payload = _split_message(
        dict(server["arrays"]), server["skeleton"], method.payload_codec()
    )
    if not _states_equal(state, final):
        errors.append(f"last checkpoint {os.path.basename(path)} does not match the final global state")


def run_once(args) -> dict:
    from workloads import WORKLOADS, build_config

    tracer = None
    if args.trace_dir:
        from tracer import install

        tracer = install(args.trace_dir)

    from repro.baselines.registry import build_method
    from repro.continual.scenario import DomainIncrementalScenario
    from repro.datasets.registry import build_dataset
    from repro.federated.simulation import FederatedDomainIncrementalSimulation

    workload = WORKLOADS[args.workload]
    config = build_config(workload, args.seed, args.scratch)
    dataset = build_dataset(config.dataset_name, spec_override=config.spec)
    scenario = DomainIncrementalScenario(dataset, num_tasks=config.num_tasks)
    method = build_method(workload.method, backbone=config.backbone, num_tasks=scenario.num_tasks)
    sim = FederatedDomainIncrementalSimulation(scenario, method, config.federated)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        sim.close()
        return {"setup_s": setup_s}

    tally = {"dispatched": 0, "delivered": 0, "samples": 0}
    _count_dispatch_and_delivery(type(sim.executor), type(method), tally)
    start = time.perf_counter()
    result = sim.run()
    run_s = time.perf_counter() - start

    errors = []
    fed = config.federated
    losses = result.round_losses
    if len(losses) != scenario.num_tasks * fed.rounds_per_task:
        errors.append(f"{len(losses)} round losses for {scenario.num_tasks}x{fed.rounds_per_task} rounds")
    if not all(math.isfinite(x) for x in losses):
        errors.append("non-finite round loss")
    matrix = [[[name, _hex(acc)] for name, acc in row.items()] for row in result.per_task_accuracy]
    accs = [acc for row in result.per_task_accuracy for acc in row.values()]
    if len(result.per_task_accuracy) != scenario.num_tasks or not all(0.0 <= a <= 1.0 for a in accs):
        errors.append("accuracy matrix is incomplete or out of [0, 1]")
    if workload.durable:
        _verify_durable(sim, method, errors)

    ledger = result.communication
    ipc = getattr(sim.executor, "ipc_log", [])
    io = {
        "frames": sum(len(r.broadcast_frames) + len(r.upload_frames) for r in ledger.records),
        "down_bytes": ledger.broadcast_bytes,
        "up_bytes": ledger.uploaded_bytes,
        "ipc_bytes": sum(r.method_bytes + r.broadcast_bytes + r.shard_bytes for r in ipc),
        "cache_hits": sum(r.cache_hits for r in ipc),
        "shard_lookups": sum(r.cache_hits + r.shards_shipped for r in ipc),
    }
    percentages = result.metrics.as_percentages()
    # Peak of this process plus the largest reaped worker (``run`` joins the pool).
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "samples": tally["samples"],
        "dispatched": tally["dispatched"],
        "delivered": tally["delivered"],
        "peak_rss_mb": (self_kb + children_kb) / 1024.0,
        "comm_bytes": ledger.total_bytes,
        "avg_acc": percentages["avg"],
        "last_acc": percentages["last"],
        "num_classes": scenario.num_classes,
        "fingerprint": {
            "accuracy_matrix": matrix,
            "round_losses": [_hex(x) for x in losses],
            "comm_bytes": ledger.total_bytes,
        },
        "errors": errors,
    }
    if tracer is not None:
        from tracer import chrome_trace, layer_metrics

        spans, counters, workers = tracer.collect()
        values, unmeasured = layer_metrics(spans, counters, io)
        with open(os.path.join(args.trace_dir, "trace.json"), "w") as handle:
            json.dump(chrome_trace(spans, tracer.main_pid), handle)
        out["layers"] = values
        out["unmeasured"] = unmeasured
        out["trace_workers"] = workers
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--scratch", required=True, help="fresh directory for this repetition")
    parser.add_argument("--out", required=True, help="where to write the JSON result")
    parser.add_argument("--trace-dir", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    try:
        out = run_once(args)
        status = 0
    except Exception:
        out = {"errors": [traceback.format_exc()]}
        status = 1
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
