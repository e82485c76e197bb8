"""Spans and counters recorded from outside the program.

:func:`install` wraps the public functions and methods at each layer boundary
of ``repro`` (nothing under ``src/`` changes): every call becomes a span with
a name, start, end and parent.  ``apply_op`` calls are counted, and the
autograd op table gets per-op forward/vjp time for eager execution only: a
forward counts inside ``apply_op``/``apply_effect`` and a vjp inside
``Tensor.backward``, so compiled plan replay, which calls the same ops, stays
out of them (it is timed whole as ``autograd.plan_execute``).  Spans stay in
memory until the run ends.  Forked worker processes inherit the wrappers and
append their own spans to ``worker-<pid>.jsonl`` files in the trace directory
each time an outermost span closes, so nothing has to travel back through the
program's own channels.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: Ops reported by name; every other op is summed under ``other``.  No
#: workload's model pools with ``max_pool2d``, so it is not named.
NAMED_OPS = (
    "conv2d",
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "sum",
    "max",
    "exp",
    "log",
    "sqrt",
    "getitem",
    "concatenate",
    "broadcast_to",
    "transpose",
)
OP_KEYS = NAMED_OPS + ("other",)
#: (op, phase) pairs reported; ``max`` has no vjp phase because every use of
#: it (the softmax shift) is detached.
OP_PHASES = [(k, p) for k in OP_KEYS for p in ("fwd", "vjp") if (k, p) != ("max", "vjp")]

_now = time.perf_counter_ns

# (id, name, start_ns, end_ns, parent_id, pid, args)
Span = Tuple[int, str, int, int, int, int, Optional[dict]]


class Tracer:
    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.main_pid = os.getpid()
        #: Nesting depth of eager op application and ``Tensor.backward`` calls.
        self.apply_depth = 0
        self.backward_depth = 0
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.next_id = (self.pid << 32) + 1
        self.op_calls = 0
        self.dispatch_ns = 0
        self.fwd_inside_ns = 0
        self.op_fwd_ns = dict.fromkeys(OP_KEYS, 0)
        self.op_vjp_ns = dict.fromkeys(OP_KEYS, 0)

    # ------------------------------------------------------------------ spans
    def wrap(self, fn, name: str, args_fn=None):
        """``fn`` timed as span ``name``; ``args_fn(result, *a, **kw)`` adds span args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else 0
            tracer.stack.append(sid)
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                tracer.stack.pop()
                extra = args_fn(result, *args, **kwargs) if args_fn is not None else None
                tracer.spans.append((sid, name, start, end, parent, tracer.pid, extra))
                if not tracer.stack and tracer.pid != tracer.main_pid:
                    tracer.flush_worker()

        return traced

    def wrap_iter(self, iter_fn, name: str):
        """``__iter__`` whose every ``next()`` is a span ``name``."""
        tracer = self

        @functools.wraps(iter_fn)
        def traced_iter(obj):
            inner = iter_fn(obj)
            step = tracer.wrap(lambda: next(inner, _END), name)
            while True:
                item = step()
                if item is _END:
                    return
                yield item

        return traced_iter

    # ---------------------------------------------------------- worker files
    def flush_worker(self) -> None:
        record = {
            "pid": self.pid,
            "spans": self.spans,
            "counters": self.counter_snapshot(),
        }
        path = os.path.join(self.trace_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        self._reset()

    def counter_snapshot(self) -> Dict[str, float]:
        snap: Dict[str, float] = {
            "autograd.op_calls": self.op_calls,
            "autograd.dispatch_ns": self.dispatch_ns,
        }
        for key in OP_KEYS:
            snap[f"op.{key}.fwd_ns"] = self.op_fwd_ns[key]
            snap[f"op.{key}.vjp_ns"] = self.op_vjp_ns[key]
        return snap

    def collect(self) -> Tuple[List[Span], Dict[str, float], int]:
        """All spans and summed counters: this process plus every worker file."""
        spans = list(self.spans)
        counters: Dict[str, float] = defaultdict(float, self.counter_snapshot())
        workers = set()
        for entry in sorted(os.listdir(self.trace_dir)):
            if not (entry.startswith("worker-") and entry.endswith(".jsonl")):
                continue
            with open(os.path.join(self.trace_dir, entry)) as handle:
                for line in handle:
                    record = json.loads(line)
                    workers.add(record["pid"])
                    spans.extend(tuple(span) for span in record["spans"])
                    for key, value in record["counters"].items():
                        counters[key] += value
        return spans, dict(counters), len(workers)


_END = object()


# --------------------------------------------------------------------------- #
# Installation
# --------------------------------------------------------------------------- #
def _rebind_function(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(tracer: Tracer, cls, method: str, span: str, args_fn=None) -> None:
    original = getattr(cls, method)
    setattr(cls, method, tracer.wrap(original, span, args_fn))


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _wrap_defining_classes(tracer: Tracer, base, method: str, span: str, args_fn=None) -> None:
    """Wrap ``method`` on ``base`` and on every subclass that overrides it.

    A subclass override that calls ``super()`` yields a nested span of the
    same name; :func:`layer_metrics` keeps only the outer one when summing.
    """
    for cls in [base] + _subclasses(base):
        if method in vars(cls):
            _wrap_method(tracer, cls, method, span, args_fn)


def _install_ops(tracer: Tracer) -> None:
    from repro.autograd import functional, tape, tensor
    from repro.autograd.tape import Op
    from repro.autograd.tensor import Tensor

    ops = {id(v): v for mod in (tape, functional) for v in vars(mod).values() if isinstance(v, Op)}
    for op in ops.values():
        key = op.name if op.name in NAMED_OPS else "other"
        forward, vjp = op.forward, op.vjp

        def timed_forward(*args, _f=forward, _k=key, **kwargs):
            if not tracer.apply_depth:
                return _f(*args, **kwargs)
            start = _now()
            try:
                return _f(*args, **kwargs)
            finally:
                took = _now() - start
                tracer.op_fwd_ns[_k] += took
                tracer.fwd_inside_ns += took

        object.__setattr__(op, "forward", timed_forward)
        if vjp is not None:

            def timed_vjp(*args, _f=vjp, _k=key, **kwargs):
                if not tracer.backward_depth:
                    return _f(*args, **kwargs)
                start = _now()
                try:
                    return _f(*args, **kwargs)
                finally:
                    tracer.op_vjp_ns[_k] += _now() - start

            object.__setattr__(op, "vjp", timed_vjp)

    apply_op = tensor.apply_op

    def traced_apply_op(op, inputs, **kwargs):
        tracer.op_calls += 1
        inside = tracer.fwd_inside_ns
        tracer.apply_depth += 1
        start = _now()
        try:
            return apply_op(op, inputs, **kwargs)
        finally:
            tracer.dispatch_ns += _now() - start - (tracer.fwd_inside_ns - inside)
            tracer.apply_depth -= 1

    _rebind_function(apply_op, traced_apply_op)

    apply_effect = tensor.apply_effect

    def traced_apply_effect(op, inputs, **kwargs):
        tracer.apply_depth += 1
        try:
            return apply_effect(op, inputs, **kwargs)
        finally:
            tracer.apply_depth -= 1

    _rebind_function(apply_effect, traced_apply_effect)

    backward = Tensor.backward

    @functools.wraps(backward)
    def eager_backward(*args, **kwargs):
        tracer.backward_depth += 1
        try:
            return backward(*args, **kwargs)
        finally:
            tracer.backward_depth -= 1

    Tensor.backward = eager_backward


def install(trace_dir: str) -> Tracer:
    """Wrap every layer boundary of ``repro`` and return the recording tracer."""
    import repro.baselines.registry  # noqa: F401  (loads every method class)
    from repro.autograd.tape import Plan
    from repro.autograd.tensor import Tensor
    from repro.continual.evaluator import GlobalEvaluator
    from repro.core import clustering, dpcl, gpl
    from repro.core.cdap import CDAPGenerator
    from repro.core.server import RefFiLPromptAggregator
    from repro.datasets import partition, registry as dataset_registry, synthetic
    from repro.datasets.base import DataLoader
    from repro.federated import checkpoint, sampling
    from repro.federated.execution import Executor
    from repro.federated.method import FederatedMethod
    from repro.federated.simulation import FederatedDomainIncrementalSimulation
    from repro.federated.transport import Transport
    from repro.nn.optim import Optimizer
    from repro.serving.registry import ModelRegistry

    os.makedirs(trace_dir, exist_ok=True)
    tracer = Tracer(trace_dir)
    # A forked worker starts with empty spans and counters of its own.
    os.register_at_fork(after_in_child=tracer._reset)

    def function(module, attr, span, args_fn=None):
        original = getattr(module, attr)
        _rebind_function(original, tracer.wrap(original, span, args_fn))

    def saved_bytes(_result, path, _payload):
        return {"bytes": os.path.getsize(path)}

    def seen_samples(_result, evaluator, _model, task_id):
        return {"samples": sum(len(t.test) for t in evaluator.scenario.seen_tests(task_id))}

    function(dataset_registry, "build_dataset", "datasets.build")
    function(synthetic, "generate_domain_split", "datasets.build")
    function(partition, "partition_domain_across_clients", "datasets.partition")
    DataLoader.__iter__ = tracer.wrap_iter(DataLoader.__iter__, "datasets.load_wait")
    function(sampling, "sample_clients", "sampling.select")
    function(sampling, "sample_clients_lazy", "sampling.select")
    _wrap_defining_classes(tracer, FederatedMethod, "local_update", "client.local_update")
    _wrap_defining_classes(tracer, FederatedMethod, "aggregate", "aggregation.aggregate")
    for hook in ("on_task_start", "on_round_start", "on_task_end"):
        _wrap_defining_classes(tracer, FederatedMethod, hook, "method.hooks")
    _wrap_method(tracer, CDAPGenerator, "forward", "core.cdap")
    _wrap_method(tracer, CDAPGenerator, "generate_without_task", "core.cdap")
    function(gpl, "gpl_loss", "core.gpl")
    function(dpcl, "dpcl_loss", "core.dpcl")
    _wrap_method(tracer, RefFiLPromptAggregator, "ingest", "core.prompt_aggregate")
    function(clustering, "cluster_prompt_groups", "core.prompt_cluster")
    _wrap_method(tracer, Tensor, "backward", "autograd.backward")
    _wrap_method(tracer, Plan, "__init__", "autograd.plan_compile")
    _wrap_method(tracer, Plan, "execute", "autograd.plan_execute")
    _wrap_defining_classes(tracer, Optimizer, "step", "nn.optim_step")
    _wrap_defining_classes(tracer, Transport, "broadcast_round", "transport.broadcast")
    _wrap_defining_classes(tracer, Transport, "collect_updates", "transport.collect")
    _wrap_defining_classes(tracer, Executor, "run_round", "execution.round")
    _wrap_method(tracer, GlobalEvaluator, "evaluate_seen", "evaluator.eval", seen_samples)
    _wrap_method(tracer, GlobalEvaluator, "evaluate_after_task", "evaluator.eval", seen_samples)
    function(checkpoint, "save_checkpoint", "checkpoint.save", saved_bytes)
    _wrap_method(
        tracer, ModelRegistry, "publish", "registry.publish",
        lambda info, *a, **k: {"bytes": info.num_bytes} if info is not None else None,
    )
    _wrap_method(tracer, FederatedDomainIncrementalSimulation, "run", "simulation.run")
    _install_ops(tracer)
    return tracer


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
#: Children subtracted from ``client.local_update`` to leave its forward time.
_NOT_FORWARD = frozenset(
    {
        "autograd.backward",
        "nn.optim_step",
        "datasets.load_wait",
        "autograd.plan_execute",
        "autograd.plan_compile",
    }
)

#: Per-layer metrics: name -> unit.  Every traced run reports all of them.
LAYER_METRICS: Dict[str, str] = {
    "datasets.build_s": "s",
    "datasets.partition_s": "s",
    "datasets.load_wait_s": "s",
    "sampling.select_s": "s",
    "client.local_update_s": "s",
    "client.forward_s": "s",
    "core.cdap_s": "s",
    "core.gpl_s": "s",
    "core.dpcl_s": "s",
    "core.prompt_aggregate_s": "s",
    "core.prompt_cluster_s": "s",
    "autograd.backward_s": "s",
    "autograd.op_calls": "count",
    "autograd.ops_per_step": "ops/step",
    "autograd.dispatch_s": "s",
    **{f"autograd.op.{key}.{phase}_s": "s" for key, phase in OP_PHASES},
    "autograd.plan_compiles": "count",
    "autograd.plan_executes": "count",
    "autograd.plan_execute_s": "s",
    "autograd.plan_executes_per_compile": "ratio",
    "nn.optim_step_s": "s",
    "nn.sgd_steps": "count",
    "transport.broadcast_s": "s",
    "transport.collect_s": "s",
    "transport.frames": "count",
    "transport.down_mb": "MB",
    "transport.up_mb": "MB",
    "execution.round_s": "s",
    "execution.ipc_mb": "MB",
    "execution.shard_cache_hit_ratio": "ratio",
    "aggregation.aggregate_s": "s",
    "evaluator.eval_s": "s",
    "evaluator.samples": "count",
    "evaluator.samples_per_s": "samples/s",
    "checkpoint.save_s": "s",
    "checkpoint.mb": "MB",
    "registry.publish_s": "s",
    "registry.mb": "MB",
    "simulation.unattributed_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def _ancestors(span: Span, by_id: Dict[int, Span]):
    parent = by_id.get(span[4])
    while parent is not None:
        yield parent
        parent = by_id.get(parent[4])


def layer_metrics(spans: List[Span], counters: Dict[str, float], io: Dict[str, float]):
    """Per-layer values from spans, op counters and the run's own ledgers.

    ``io`` carries what the program already counts itself: transport frames
    and bytes from the communication ledger, IPC bytes and shard-cache hits
    from the executor's log.  Returns ``(values, unmeasured)``, where
    ``unmeasured`` maps a metric to the reason its value (reported as 0) could
    not be measured on this workload.
    """
    by_id = {span[0]: span for span in spans}
    durations: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    span_args: Dict[str, float] = defaultdict(float)
    forward_ns = 0
    unattributed_ns = 0
    for span in spans:
        sid, name, start, end, parent, _pid, args = span
        lineage = list(_ancestors(span, by_id))
        names = [a[1] for a in lineage]
        if name in names:
            continue  # a super() call inside an already-timed override
        if name == "checkpoint.save" and "registry.publish" in names:
            continue  # the registry's own version file, counted as registry.mb
        durations[name] += end - start
        calls[name] += 1
        for key, value in (args or {}).items():
            span_args[f"{name}.{key}"] += value
        if name == "client.local_update":
            forward_ns += end - start
        if name in _NOT_FORWARD:
            for ancestor in lineage:
                if ancestor[1] in _NOT_FORWARD:
                    break
                if ancestor[1] == "client.local_update":
                    forward_ns -= end - start
                    break
        if name == "simulation.run":
            unattributed_ns += end - start
        if by_id.get(parent, (0, ""))[1] == "simulation.run":
            unattributed_ns -= end - start

    seconds = lambda name: durations[name] / 1e9  # noqa: E731
    steps = calls["nn.optim_step"]
    compiles = calls["autograd.plan_compile"]
    eval_s = seconds("evaluator.eval")
    values: Dict[str, float] = {
        "datasets.build_s": seconds("datasets.build"),
        "datasets.partition_s": seconds("datasets.partition"),
        "datasets.load_wait_s": seconds("datasets.load_wait"),
        "sampling.select_s": seconds("sampling.select"),
        "client.local_update_s": seconds("client.local_update"),
        "client.forward_s": forward_ns / 1e9,
        "core.cdap_s": seconds("core.cdap"),
        "core.gpl_s": seconds("core.gpl"),
        "core.dpcl_s": seconds("core.dpcl"),
        "core.prompt_aggregate_s": seconds("core.prompt_aggregate"),
        "core.prompt_cluster_s": seconds("core.prompt_cluster"),
        "autograd.backward_s": seconds("autograd.backward"),
        "autograd.op_calls": counters["autograd.op_calls"],
        "autograd.ops_per_step": counters["autograd.op_calls"] / steps if steps else 0.0,
        "autograd.dispatch_s": counters["autograd.dispatch_ns"] / 1e9,
        "autograd.plan_compiles": compiles,
        "autograd.plan_executes": calls["autograd.plan_execute"],
        "autograd.plan_execute_s": seconds("autograd.plan_execute"),
        "autograd.plan_executes_per_compile": (
            calls["autograd.plan_execute"] / compiles if compiles else 0.0
        ),
        "nn.optim_step_s": seconds("nn.optim_step"),
        "nn.sgd_steps": steps,
        "transport.broadcast_s": seconds("transport.broadcast"),
        "transport.collect_s": seconds("transport.collect"),
        "transport.frames": io["frames"],
        "transport.down_mb": io["down_bytes"] / 1e6,
        "transport.up_mb": io["up_bytes"] / 1e6,
        "execution.round_s": seconds("execution.round"),
        "execution.ipc_mb": io["ipc_bytes"] / 1e6,
        "execution.shard_cache_hit_ratio": (
            io["cache_hits"] / io["shard_lookups"] if io["shard_lookups"] else 0.0
        ),
        "aggregation.aggregate_s": seconds("aggregation.aggregate"),
        "evaluator.eval_s": eval_s,
        "evaluator.samples": span_args["evaluator.eval.samples"],
        "evaluator.samples_per_s": span_args["evaluator.eval.samples"] / eval_s if eval_s else 0.0,
        "checkpoint.save_s": seconds("checkpoint.save"),
        "checkpoint.mb": span_args["checkpoint.save.bytes"] / 1e6,
        "registry.publish_s": seconds("registry.publish"),
        "registry.mb": span_args["registry.publish.bytes"] / 1e6,
        "simulation.unattributed_s": unattributed_ns / 1e9,
    }
    for key, phase in OP_PHASES:
        values[f"autograd.op.{key}.{phase}_s"] = counters[f"op.{key}.{phase}_ns"] / 1e9

    unmeasured: Dict[str, str] = {}
    if not io["shard_lookups"]:
        reason = "serial executor: no worker processes, so no IPC and no shard cache"
        unmeasured["execution.ipc_mb"] = reason
        unmeasured["execution.shard_cache_hit_ratio"] = reason
    if not compiles:
        unmeasured["autograd.plan_executes_per_compile"] = "no plan was compiled"
    if not steps:
        unmeasured["autograd.ops_per_step"] = "no optimizer step ran"
    if not eval_s:
        unmeasured["evaluator.samples_per_s"] = "no evaluation ran"
    return values, unmeasured


def chrome_trace(spans: List[Span], main_pid: int) -> Dict[str, object]:
    """Spans as Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
    origin = min((span[2] for span in spans), default=0)
    events = []
    for sid, name, start, end, parent, pid, args in sorted(spans, key=lambda s: s[2]):
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": pid,
                "args": {"id": sid, "parent": parent, **(args or {})},
            }
        )
    for pid in sorted({span[5] for span in spans}):
        label = "coordinator" if pid == main_pid else f"worker {pid}"
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": pid, "args": {"name": label}}
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
