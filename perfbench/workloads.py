"""The benchmark's workloads: named RefFiL / FedLwF runs on office_caltech.

Every workload is a ``scaled_config`` preset plus the performance knobs that
distinguish it; the seed a repetition runs at is the only input that varies.
Why each workload is in the benchmark is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    scale: str
    #: Extra ``scaled_config`` keyword arguments.
    knobs: Dict[str, object] = field(default_factory=dict)
    #: Whether a repetition writes checkpoints and registry versions.
    durable: bool = False
    #: A workload whose accuracy matrix this one must reproduce bit for bit at
    #: every seed: the knobs that differ change only how the run executes.
    parity_with: str = ""

    @property
    def compute_processes(self) -> int:
        """Processes that train at once: the coordinator or its workers."""
        if self.knobs.get("executor") == "parallel":
            return int(self.knobs["num_workers"])
        return 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="reffil-small",
            method="refil",
            scale="small",
            knobs={"executor": "serial", "kernel": "eager", "dtype": "float64"},
        ),
        Workload(
            name="reffil-small-2w",
            method="refil",
            scale="small",
            knobs={
                "executor": "parallel",
                "num_workers": 2,
                "kernel": "tape",
                "dtype": "float64",
            },
            parity_with="reffil-small",
        ),
        Workload(
            name="fedlwf-tiny-durable",
            method="fedlwf",
            scale="tiny",
            knobs={
                "executor": "serial",
                "kernel": "tape",
                "dtype": "float32",
                "codec": "quantize8",
                "eval_every": 1,
                "publish_every": 1,
                "checkpoint_every": 1,
            },
            durable=True,
        ),
    )
}

def build_config(workload: Workload, seed: int, scratch_dir: str):
    """The ``ScaledExperimentConfig`` of one repetition at ``seed``."""
    from repro.experiments.config import ExperimentScale, scaled_config

    knobs = dict(workload.knobs)
    if workload.durable:
        knobs["checkpoint_dir"] = os.path.join(scratch_dir, "checkpoints")
        knobs["registry_dir"] = os.path.join(scratch_dir, "registry")
    return scaled_config(
        "office_caltech", ExperimentScale(workload.scale), seed=seed, **knobs
    )
