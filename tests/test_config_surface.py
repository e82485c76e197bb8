"""The ``FederatedConfig`` surface: every accepted config runs, the docs list every knob.

* A property over the trajectory knobs: a config the constructor accepts
  finishes a 1-task x 1-round micro run for a plain baseline and for RefFiL,
  and a config it rejects raises ``ValueError`` at construction — never
  half-way through a run.  ``executor`` stays serial; parallel parity has its
  own suite.
* The README knob table lists exactly the dataclass fields, in order.
"""

from __future__ import annotations

import os
import re
from dataclasses import fields, replace

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.autograd.tape import KERNELS
from repro.baselines.registry import build_method
from repro.continual import DomainIncrementalScenario
from repro.datasets import SyntheticDomainDataset
from repro.federated import FaultSpec, FederatedConfig, FederatedDomainIncrementalSimulation
from repro.federated.clock import PROFILE_TIERS
from repro.federated.communication import CODEC_NAMES

_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

# Valid values of every trajectory knob.  Cross-knob rules (a bandwidth
# budget needs sync mode, a fleet population needs virtual clients) still
# reject some combinations of them.
_VALID = {
    "mode": st.sampled_from(["sync", "async", "buffered"]),
    "device_profile": st.sampled_from(sorted(PROFILE_TIERS)),
    "buffer_size": st.integers(0, 3),
    "staleness_decay": st.sampled_from([0.0, 0.5, 2.0]),
    "sim_time_limit": st.sampled_from([0.0, 0.5, 50.0]),
    "codec": st.sampled_from(list(CODEC_NAMES) + ["topk:0.05"]),
    "bandwidth_limit": st.sampled_from([0, 1, 10**9]),
    "drop_stragglers": st.booleans(),
    "eval_every": st.integers(0, 2),
    "kernel": st.sampled_from(KERNELS),
    "dtype": st.sampled_from(["float64", "float32"]),
    "upload_loss_rate": st.sampled_from([0.0, 0.3, 1.0]),
    "upload_corruption_rate": st.sampled_from([0.0, 0.3, 1.0]),
    "retries": st.integers(0, 2),
    "reduce_backend": st.sampled_from(["flat", "tree"]),
    "tree_fanout": st.integers(2, 3),
    "virtual_clients": st.booleans(),
    "population": st.sampled_from([0, 1, 3, 16]),
}
_NAN = float("nan")
# Out-of-range values of every knob that has a range (NaN fails every
# comparison, so a ``x < 0`` check lets it through), plus knobs drawn only
# out of range.
_INVALID = {
    "mode": ("eventually",),
    "device_profile": ("quantum",),
    "buffer_size": (-1,),
    "staleness_decay": (-0.5, _NAN),
    "sim_time_limit": (-1.0, _NAN),
    "codec": ("gzip",),
    "bandwidth_limit": (-1,),
    "eval_every": (-1,),
    "kernel": ("jit",),
    "dtype": ("float16",),
    "upload_loss_rate": (1.5, _NAN),
    "upload_corruption_rate": (-0.1,),
    "retries": (-1,),
    "reduce_backend": ("ring",),
    "tree_fanout": (1,),
    "population": (-1,),
    "eval_batch_size": (0,),
}


@st.composite
def _knobs(draw):
    """Valid knobs, with at most one of them (one draw in four) out of range."""
    knobs = {name: draw(strategy) for name, strategy in _VALID.items()}
    if draw(st.integers(0, 3)) == 3:
        broken = draw(st.sampled_from(sorted(_INVALID)))
        knobs[broken] = draw(st.sampled_from(_INVALID[broken]))
    return knobs


def _construct(base: FederatedConfig, knobs: dict) -> FederatedConfig:
    knobs = dict(knobs)
    faults = FaultSpec(
        upload_loss_rate=knobs.pop("upload_loss_rate"),
        upload_corruption_rate=knobs.pop("upload_corruption_rate"),
    )
    return replace(base, executor="serial", faults=faults, **knobs)


def _micro_run(tiny_spec, tiny_backbone_config, config: FederatedConfig, method_name: str):
    scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=1)
    method = build_method(method_name, tiny_backbone_config, num_tasks=1)
    return FederatedDomainIncrementalSimulation(scenario, method, config).run()


class TestConfigRobustness:
    @given(knobs=_knobs())
    # Both were accepted once and then failed mid-run: an async arrival's
    # mixing rate (1 + staleness)^-NaN is NaN, and a zero evaluation batch
    # fails at the first evaluation.
    @example(
        knobs={
            "mode": "async",
            "device_profile": "mild",
            "staleness_decay": _NAN,
            "upload_loss_rate": 0.0,
            "upload_corruption_rate": 0.0,
        }
    )
    @example(knobs={"eval_batch_size": 0, "upload_loss_rate": 0.0, "upload_corruption_rate": 0.0})
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_accepted_configs_run_and_rejected_ones_fail_at_construction(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, knobs
    ):
        try:
            config = _construct(tiny_federated_config, knobs)
        except ValueError:
            return  # rejected loudly, before any work
        for method_name in ("finetune", "refil"):
            result = _micro_run(tiny_spec, tiny_backbone_config, config, method_name)
            assert result.metrics.matrix.shape == (1, 1)
            assert all(np.isfinite(loss) for loss in result.round_losses)


class TestKnobTableMatchesConfig:
    def test_readme_knob_table_lists_every_field_in_order(self):
        with open(_README, encoding="utf-8") as handle:
            text = handle.read()
        start = text.index("| `increment`")
        end = text.index("\n", text.index("| `tree_fanout`"))
        rows = re.findall(r"^\| `(\w+)` \|", text[start:end], flags=re.MULTILINE)
        assert rows == [field.name for field in fields(FederatedConfig)]
