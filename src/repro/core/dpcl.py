"""Domain-specific Prompt Contrastive Learning (DPCL) with temperature decay.

Paper Eq. 9-10.  For every sample the locally generated prompt ``u_i`` is
pulled toward the semantically closest global prompt(s) of its class (the
positives ``P+``) and pushed away from the remaining global prompts (the
negatives ``P-``), with an InfoNCE-style loss whose temperature shrinks as
tasks accumulate:

    ``tau' = max(tau_min, tau * (1 - (gamma + (t - 1) * beta)))``

Old/New clients (one domain) take the single closest class prompt as
positive; In-between clients (two domains) take the two closest.

The loss is computed batch-wide: the store is stacked once into ``G (M, d)``
and one ``(batch, M)`` cosine matrix serves every anchor, with the positives
picked by a constant mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core.prompts import GlobalPromptStore
from repro.federated.increment import ClientGroup


@dataclass(frozen=True)
class DPCLConfig:
    """Hyper-parameters of the contrastive loss (paper's defaults in Sec. V-A)."""

    tau: float = 0.9
    tau_min: float = 0.3
    gamma: float = 0.1
    beta: float = 0.05
    enable_decay: bool = True
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.tau_min <= self.tau:
            raise ValueError("require 0 < tau_min <= tau")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")


def decayed_temperature(config: DPCLConfig, task_number: int) -> float:
    """Temperature for the given 1-based task number (paper Eq. 10).

    With ``enable_decay`` off the base temperature is returned unchanged (the
    "w/o tau'" row of Table VIII).
    """
    if task_number < 1:
        raise ValueError("task_number is 1-based and must be >= 1")
    if not config.enable_decay:
        return config.tau
    decay = config.gamma + (task_number - 1) * config.beta
    return max(config.tau_min, config.tau * (1.0 - decay))


def _positive_count_for(group: ClientGroup) -> int:
    """Uo / Un clients hold one domain -> 1 positive; Ub hold two -> 2 positives."""
    return 2 if group is ClientGroup.IN_BETWEEN else 1


def dpcl_loss(
    local_prompts: Tensor,
    labels: np.ndarray,
    store: GlobalPromptStore,
    group: ClientGroup,
    temperature: float,
) -> Optional[Tensor]:
    """Contrastive loss between locally generated prompts and global prompts.

    Parameters
    ----------
    local_prompts:
        CDAP output of shape ``(batch, prompt_length, d)``.
    labels:
        Integer class labels of the batch.
    store:
        The clustered global prompt store broadcast by the server.
    group:
        The client's increment group (determines the number of positives).
    temperature:
        The decayed temperature ``tau'``.

    Returns
    -------
    A scalar loss tensor, or ``None`` when the store has no usable prompts yet
    (first rounds of the first task) -- the caller simply omits the term.
    """
    if store.is_empty:
        return None
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    labels = np.asarray(labels, dtype=np.int64)
    pooled = local_prompts.mean(axis=1)  # (batch, d), differentiable

    # The store stacked once: G (M, d) with each row's owning class.
    classes = sorted(store.representatives)
    prompts = store.all_prompts()
    owners = np.repeat(classes, [store.representatives[c].shape[0] for c in classes])
    same_class = owners[None, :] == labels[:, None]  # (batch, M)
    class_sizes = same_class.sum(axis=1)
    take = np.minimum(_positive_count_for(group), class_sizes)
    # Skip a sample whose class has no global prompts yet, or that would have
    # no negatives left (the InfoNCE ratio is degenerate).
    kept = np.flatnonzero((class_sizes > 0) & (take < prompts.shape[0]))
    if kept.size == 0:
        return None

    # Positives: the class's prompts closest (by cosine) to the detached
    # anchor; a stable sort lets the lowest index win ties.
    unit_prompts = prompts / (np.sqrt((prompts * prompts).sum(axis=1, keepdims=True)) + 1e-12)
    anchors = pooled.data[kept]
    anchors = anchors / np.maximum(np.linalg.norm(anchors, axis=1, keepdims=True), 1e-12)
    scores = np.where(same_class[kept], -(anchors @ unit_prompts.T), np.inf)
    ranks = np.argsort(np.argsort(scores, axis=1, kind="stable"), axis=1)
    positive = ranks < take[kept, None]  # (kept, M); other classes rank last

    # Positives and negatives together are every prompt in the store, so
    # -log(pos / (pos + neg)) = log(sum_all e^s) - log(sum_pos e^s).
    logits = (F.l2_normalize(pooled[kept]) @ Tensor(unit_prompts.T)) * (1.0 / temperature)
    scaled = logits.exp()
    per_sample = scaled.sum(axis=1).log() - (scaled * Tensor(positive)).sum(axis=1).log()
    return per_sample.mean()


__all__ = ["DPCLConfig", "decayed_temperature", "dpcl_loss"]
