"""End-to-end benchmark of the RefFiL reproduction.

Usage, from the root of the repository::

    python3 perfbench/run.py                      # every workload, interleaved, then traced
    python3 perfbench/run.py --workload reffil-small --seed 3 --seconds 44
    python3 perfbench/run.py --workload fedlwf-tiny-durable --trace 1

Each repetition is one complete federated domain-incremental run in a fresh
interpreter (``rep.py``).  With ``--trace 0`` the benchmark repeats until
``--seconds`` is spent (at least two repetitions per workload) and reports the
end-to-end metrics as medians over repetitions; accuracy is the mean over
repetitions, which run at distinct seeds derived from ``--seed``; accuracy is
printed and checked to beat chance but is not in the result line.
``--seconds`` is the total measuring time: without ``--workload`` every
workload runs, interleaved, and they share it.  With ``--trace 1`` it runs,
per workload, one untraced and two traced repetitions at the first derived
seed (preceded by the parity partner's untraced repetition, if the workload
has one) and reports the per-layer metrics of the last traced repetition,
writing the Chrome trace and the layer table under ``.perfbench/traces/``.

Correctness checks, any of which makes the command exit 1:

* every repetition finishes, with a complete accuracy matrix in [0, 1], one
  finite loss per round, and (durable workload) a newest registry version and
  last checkpoint that load CRC-clean and equal the final global state;
* repetitions of one workload at one seed within one invocation repeat their
  accuracy matrix, round losses and communication bytes exactly, traced or
  not, and the two traced ones also their SGD-step, op-call and plan-compile
  counts;
* ``reffil-small-2w`` reproduces ``reffil-small``'s accuracy matrix bit for bit
  at every seed both run in one invocation, which every ``--trace 1`` run of
  ``reffil-small-2w`` and every run without ``--workload`` includes.

Nothing is compared with an earlier invocation, so a change to the program
that legitimately moves these outputs or counts is never held against
records of the code before it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = ".perfbench"
MIN_REPS = 2
SETUP_PROBES = 3
#: Hard limit on one repetition; the whole command must end well inside 180 s.
REP_TIMEOUT_S = 150

#: End-to-end metrics in the result line, gated by the bounds in BENCHMARK.json.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "comm_mb": "MB",
    "delivered_update_share": "ratio",
}
#: Counts of a traced repetition that repeat exactly at one seed.
REPEATED_COUNTS = ("nn.sgd_steps", "autograd.op_calls", "autograd.plan_compiles")
#: Printed and checked, but kept out of the result line: across seeds the
#: paper's Avg/Last accuracy spreads wider (IQR/median 0.28 and 0.34 for
#: reffil-small) than the largest bound a gated metric may have.
QUALITY = {"avg_acc": "%", "last_acc": "%"}


def derived_seed(seed: int, rep: int) -> int:
    """The program seed of repetition ``rep`` of a run at workload seed ``seed``."""
    return int(hashlib.sha256(f"{seed}/{rep}".encode()).hexdigest()[:7], 16)


def environment(cores: int) -> dict:
    import numpy

    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def blas_threads(workload, cores: int) -> int:
    """BLAS threads per training process, so no repetition runs more threads than cores."""
    return max(1, cores // workload.compute_processes)


# --------------------------------------------------------------------------- #
# Repetitions
# --------------------------------------------------------------------------- #
def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the repetition's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_rep(name: str, seed: int, cores: int, *, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one repetition in a fresh interpreter and return its result dict."""
    workload = WORKLOADS[name]
    tag = f"{name}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    scratch = os.path.join(OUT, "tmp", tag)
    os.makedirs(scratch)
    out_path = os.path.join(scratch, "result.json")
    command = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        "--workload", name,
        "--seed", str(seed),
        "--scratch", os.path.join(scratch, "run"),
        "--out", out_path,
    ]
    if trace:
        command += ["--trace-dir", os.path.join(scratch, "trace")]
    if setup_only:
        command.append("--setup-only")
    threads = str(blas_threads(workload, cores))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    with open(os.path.join(scratch, "log.txt"), "w") as log:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            command + ["--spawned-at", repr(spawned_at)],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            _stop_group(proc)
    try:
        with open(out_path) as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        with open(os.path.join(scratch, "log.txt")) as handle:
            tail = handle.read()[-2000:]
        result = {"errors": [f"repetition exited with {proc.returncode} and no result:\n{tail}"]}
    if trace and "layers" in result:
        result["trace_file"] = _keep_trace(scratch, name, seed)
    shutil.rmtree(scratch, ignore_errors=True)
    result.update(workload=name, seed=seed, blas_threads=int(threads))
    return result


def _keep_trace(scratch: str, name: str, seed: int) -> str:
    target_dir = os.path.join(OUT, "traces")
    os.makedirs(target_dir, exist_ok=True)
    target = os.path.join(target_dir, f"{name}-seed{seed}.trace.json")
    shutil.move(os.path.join(scratch, "trace", "trace.json"), target)
    return target


# --------------------------------------------------------------------------- #
# Cross-repetition checks
# --------------------------------------------------------------------------- #
#: What the repetitions of this invocation recorded, by (workload, seed, kind).
RECORDS: dict = {}


def check_repeat(rep: dict, kind: str, record: dict) -> list:
    """``record`` must equal what an earlier repetition of the same workload and seed recorded."""
    name, seed = rep["workload"], rep["seed"]
    previous = RECORDS.setdefault((name, seed, kind), record)
    return [
        f"{name} seed {seed}: {key} differs from an earlier repetition at this seed"
        for key in record
        if previous[key] != record[key]
    ]


def rep_errors(rep: dict) -> list:
    errors = list(rep.get("errors", []))
    if errors or "fingerprint" not in rep:
        return errors
    errors += check_repeat(rep, "outputs", rep["fingerprint"])
    name, seed = rep["workload"], rep["seed"]
    partner = WORKLOADS[name].parity_with
    other = RECORDS.get((partner, seed, "outputs"))
    if other is not None and other["accuracy_matrix"] != rep["fingerprint"]["accuracy_matrix"]:
        errors.append(f"{name} and {partner} accuracy matrices differ at seed {seed}")
    return errors


# --------------------------------------------------------------------------- #
# Modes
# --------------------------------------------------------------------------- #
def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(names, seed: int, seconds: float, cores: int):
    """Interleaved repetitions of every workload until ``seconds`` is spent."""
    start = time.monotonic()
    setups = {name: [] for name in names}
    reps = {name: [] for name in names}
    errors = []
    for _ in range(SETUP_PROBES):
        for name in names:
            probe = run_rep(name, derived_seed(seed, 0), cores, setup_only=True)
            errors += probe.get("errors", [])
            if "setup_s" in probe:
                setups[name].append(probe["setup_s"])
    index = 0
    while True:
        round_start = time.monotonic()
        for name in names:
            rep = run_rep(name, derived_seed(seed, index), cores)
            rep["errors"] = rep_errors(rep)
            errors += rep["errors"]
            reps[name].append(rep)
            if "setup_s" in rep:
                setups[name].append(rep["setup_s"])
        index += 1
        took = time.monotonic() - round_start
        if index >= MIN_REPS and time.monotonic() - start + took > seconds:
            break

    metrics, attempted, failed = {}, 0, 0
    for name in names:
        done = [r for r in reps[name] if "run_s" in r and not r["errors"]]
        expected = max([r["dispatched"] for r in done], default=0)
        # A repetition that raised or failed a check delivered none of its updates.
        counts = [(r["dispatched"], r["delivered"]) if r in done else (expected, 0) for r in reps[name]]
        dispatched = sum(d for d, _ in counts)
        delivered = sum(d for _, d in counts)
        attempted += dispatched
        failed += dispatched - delivered
        samples = {
            "run_s": [r["run_s"] for r in done],
            "setup_s": setups[name],
            "train_samples_per_s": [r["samples"] / r["run_s"] for r in done],
            "peak_rss_mb": [r["peak_rss_mb"] for r in done],
            "comm_mb": [r["comm_bytes"] / 1e6 for r in done],
            "delivered_update_share": [d / n if n else 0.0 for n, d in counts],
            "avg_acc": [r["avg_acc"] for r in done],
            "last_acc": [r["last_acc"] for r in done],
        }
        values = {
            # Accuracy is a mean over the repetitions' distinct seeds.
            metric: (statistics.fmean if metric in QUALITY else statistics.median)(series)
            for metric, series in samples.items()
            if series
        }
        # From the same totals as the result line's ``attempted`` and ``failed``.
        values["delivered_update_share"] = delivered / dispatched if dispatched else 0.0
        metrics[name] = {
            "reps": len(reps[name]),
            "blas_threads": reps[name][0]["blas_threads"],
            "values": values,
            "samples": samples,
        }
        chance = 100.0 / done[0]["num_classes"] if done else 0.0
        for metric in QUALITY:
            mean = metrics[name]["values"].get(metric, 0.0)
            if mean <= chance:
                errors.append(f"{name}: mean {metric} {mean:.2f}% is not above chance ({chance:.2f}%)")
    return metrics, attempted, failed, errors


def trace(names, seed: int, cores: int, stamp: dict):
    """One untraced and two traced repetitions per workload at the first derived seed.

    The untraced one comes first, so both traced ones are checked against its
    outputs; the second traced one is checked against the first's counts.
    A workload with a parity partner first gets the partner's untraced
    repetition at the same seed, unless this invocation already ran it.
    """
    program_seed = derived_seed(seed, 0)
    layers, attempted, failed, errors = {}, 0, 0, []
    for name in names:
        partner = WORKLOADS[name].parity_with
        reps = []
        if partner and (partner, program_seed, "outputs") not in RECORDS:
            reps.append(run_rep(partner, program_seed, cores))
        plain = run_rep(name, program_seed, cores)
        traced = [run_rep(name, program_seed, cores, trace=True) for _ in range(2)]
        for rep in reps + [plain] + traced:
            rep["errors"] = rep_errors(rep)
            errors += rep["errors"]
            dispatched = rep.get("dispatched", 0)
            attempted += dispatched
            failed += dispatched if rep["errors"] else dispatched - rep["delivered"]
        if partner and (partner, program_seed, "outputs") not in RECORDS:
            errors.append(f"{name}: no {partner} outputs at seed {program_seed} to check parity against")
        if not all("layers" in rep for rep in traced) or "run_s" not in plain:
            errors.append(f"{name}: traced run produced no layer metrics")
            continue
        for rep in traced:
            errors += check_repeat(rep, "counts", {key: rep["layers"][key] for key in REPEATED_COUNTS})
        traced = traced[-1]
        values = dict(traced["layers"])
        values["trace.run_s"] = traced["run_s"]
        values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        layers[name] = {
            "values": values,
            "unmeasured": traced["unmeasured"],
            "trace_file": traced["trace_file"],
            "trace_workers": traced["trace_workers"],
            "untraced_run_s": plain["run_s"],
            "environment": stamp,
        }
        table = os.path.join(OUT, "traces", f"{name}-seed{program_seed}.layers.json")
        with open(table, "w") as handle:
            json.dump(layers[name], handle)
        layers[name]["table_file"] = table
    return layers, attempted, failed, errors


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def print_end_to_end(metrics) -> None:
    for name, table in metrics.items():
        print(f"\n{name}: {table['reps']} repetitions, BLAS threads {table['blas_threads']}")
        for metric, unit in {**END_TO_END, **QUALITY}.items():
            if metric not in table["values"]:
                print(f"  {metric:<24} missing")
                continue
            samples = table["samples"][metric]
            low, high = quartiles(samples)
            print(
                f"  {metric:<24} {table['values'][metric]:>12.4f} {unit:<10} "
                f"q1 {low:.4f}  q3 {high:.4f}  n={len(samples)}"
            )


def print_layers(layers) -> None:
    for name, entry in layers.items():
        values, unmeasured = entry["values"], entry["unmeasured"]
        print(f"\n{name}: traced run_s {values['trace.run_s']:.3f} s, untraced {entry['untraced_run_s']:.3f} s, "
              f"overhead {values['trace.overhead_s']:.3f} s; worker processes traced: {entry['trace_workers']}")
        print(f"  chrome trace: {entry['trace_file']}\n  layer table:  {entry['table_file']}")
        for metric, unit in LAYER_METRICS.items():
            note = f"  (unmeasured: {unmeasured[metric]})" if metric in unmeasured else ""
            print(f"  {metric:<40} {values[metric]:>14.6f} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0, help="total measuring time, shared by the workloads run together")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics only, 1: traced per-layer metrics only (default: both)",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    shutil.rmtree(os.path.join(OUT, "tmp"), ignore_errors=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    cores = len(os.sched_getaffinity(0))
    stamp = dict(environment(cores), seed=args.seed, workloads={
        n: {"method": WORKLOADS[n].method, "scale": WORKLOADS[n].scale,
            "blas_threads": blas_threads(WORKLOADS[n], cores)} for n in names})
    print("environment: " + json.dumps(stamp, sort_keys=True))

    phases = [args.trace] if args.trace is not None else [0, 1]
    flat, attempted, failed, errors = {}, 0, 0, []
    for phase in phases:
        if phase:
            layers, *counts = trace(names, args.seed, cores, stamp)
            print_layers(layers)
            tables = {name: entry["values"] for name, entry in layers.items()}
            units = LAYER_METRICS
        else:
            metrics, *counts = measure(names, args.seed, args.seconds, cores)
            print_end_to_end(metrics)
            tables = {name: table["values"] for name, table in metrics.items()}
            units = END_TO_END
        attempted, failed, errors = attempted + counts[0], failed + counts[1], errors + counts[2]
        for name in names:
            for metric, unit in units.items():
                if metric not in tables.get(name, {}):
                    errors.append(f"{name}: {metric} could not be measured")
                    continue
                key = metric if len(names) == 1 else f"{name}.{metric}"
                flat[key] = {"value": tables[name][metric], "unit": unit}
    for error in errors:
        print("CHECK FAILED: " + error)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": flat}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
