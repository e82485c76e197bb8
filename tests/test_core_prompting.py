"""Tests for RefFiL's prompt machinery: CDAP, prompt stores, clustering, DPCL, GPL."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, default_dtype, functional as F
from repro.core import (
    CDAPConfig,
    CDAPGenerator,
    DPCLConfig,
    GlobalPromptStore,
    LocalPromptCollector,
    cluster_prompt_groups,
    decayed_temperature,
    dpcl_loss,
    gpl_loss,
)
from repro.core.clustering import cluster_class_prompts
from repro.core.model import RefFiLModel
from repro.federated.increment import ClientGroup
from repro.models.backbone import PromptedBackbone

RNG = np.random.default_rng(21)


def _reference_dpcl_loss(local_prompts, labels, store, group, temperature):
    """The per-sample DPCL loop ``dpcl_loss`` replaced, kept as a test oracle.

    One InfoNCE term per anchor: positives are the ``1`` (``2`` for
    In-between clients) closest class prompts, negatives every other prompt;
    samples whose class has no prompts or that have no negatives are skipped.
    The positive ranking asks for a stable sort explicitly: numpy's default
    argsort may dispatch to a SIMD sort that does not keep the order of ties.
    """
    if store.is_empty:
        return None
    labels = np.asarray(labels, dtype=np.int64)
    pooled = local_prompts.mean(axis=1)
    num_positives = 2 if group is ClientGroup.IN_BETWEEN else 1

    def cosine_to_all(anchor, candidates):
        anchor_norm = anchor / max(np.linalg.norm(anchor), 1e-12)
        candidate_norms = candidates / np.maximum(
            np.linalg.norm(candidates, axis=1, keepdims=True), 1e-12
        )
        return candidate_norms @ anchor_norm

    per_sample_losses = []
    for index in range(pooled.shape[0]):
        label = int(labels[index])
        class_prompts = store.class_prompts(label)
        negatives_pool = store.prompts_excluding(label)
        if class_prompts.shape[0] == 0:
            continue
        anchor = pooled[index]
        similarities = cosine_to_all(anchor.data, class_prompts)
        take = min(num_positives, class_prompts.shape[0])
        positive_idx = np.argsort(-similarities, kind="stable")[:take]
        positives = class_prompts[positive_idx]
        remaining_idx = np.setdiff1d(np.arange(class_prompts.shape[0]), positive_idx)
        negatives = class_prompts[remaining_idx]
        if negatives_pool.shape[0] > 0:
            negatives = (
                np.concatenate([negatives, negatives_pool], axis=0)
                if negatives.shape[0] > 0
                else negatives_pool
            )
        if negatives.shape[0] == 0:
            continue
        d = anchor.shape[0]
        pos_sim = F.cosine_similarity(
            anchor.reshape(1, -1).broadcast_to((positives.shape[0], d)), Tensor(positives)
        )
        neg_sim = F.cosine_similarity(
            anchor.reshape(1, -1).broadcast_to((negatives.shape[0], d)), Tensor(negatives)
        )
        pos_exp = (pos_sim * (1.0 / temperature)).exp().sum()
        neg_exp = (neg_sim * (1.0 / temperature)).exp().sum()
        per_sample_losses.append(-(pos_exp / (pos_exp + neg_exp)).log())
    if not per_sample_losses:
        return None
    total = per_sample_losses[0]
    for loss in per_sample_losses[1:]:
        total = total + loss
    return total * (1.0 / len(per_sample_losses))


class TestCDAPGenerator:
    @pytest.fixture
    def generator(self):
        return CDAPGenerator(CDAPConfig(embed_dim=16, num_tokens=9, prompt_length=3, max_tasks=4, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CDAPConfig(prompt_length=0)
        with pytest.raises(ValueError):
            CDAPConfig(num_tokens=1)
        with pytest.raises(ValueError):
            CDAPConfig(max_tasks=0)

    def test_prompt_shape(self, generator):
        tokens = Tensor(RNG.standard_normal((5, 9, 16)))
        prompts = generator(tokens, task_id=1)
        assert prompts.shape == (5, 3, 16)

    def test_prompts_are_instance_conditioned(self, generator):
        tokens = Tensor(RNG.standard_normal((2, 9, 16)))
        prompts = generator(tokens, task_id=0).data
        assert not np.allclose(prompts[0], prompts[1])

    def test_task_id_changes_prompts(self, generator):
        tokens = Tensor(RNG.standard_normal((2, 9, 16)))
        a = generator(tokens, task_id=0).data
        b = generator(tokens, task_id=2).data
        assert not np.allclose(a, b)

    def test_task_free_path_ignores_task(self, generator):
        tokens = Tensor(RNG.standard_normal((2, 9, 16)))
        assert generator.generate_without_task(tokens).shape == (2, 3, 16)

    def test_input_validation(self, generator):
        with pytest.raises(ValueError):
            generator(Tensor(RNG.standard_normal((2, 5, 16))), task_id=0)
        with pytest.raises(ValueError):
            generator(Tensor(RNG.standard_normal((2, 9, 8))), task_id=0)
        with pytest.raises(IndexError):
            generator(Tensor(RNG.standard_normal((2, 9, 16))), task_id=10)
        with pytest.raises(ValueError):
            generator(Tensor(RNG.standard_normal((9, 16))), task_id=0)

    def test_gradients_flow_to_all_components(self, generator):
        tokens = Tensor(RNG.standard_normal((3, 9, 16)), requires_grad=True)
        generator(tokens, task_id=1).sum().backward()
        assert tokens.grad is not None
        assert generator.ccda.weight.grad is not None
        assert generator.film.weight.grad is not None
        assert generator.task_keys.weight.grad is not None


class TestLocalPromptCollector:
    def test_average_per_class(self):
        collector = LocalPromptCollector(embed_dim=4)
        prompts = Tensor(np.stack([np.full((2, 4), 1.0), np.full((2, 4), 3.0)]))
        collector.add_batch(prompts, np.array([0, 0]))
        group = collector.local_prompt_group()
        assert np.allclose(group[0], 2.0)
        assert collector.classes_seen == [0]
        assert len(collector) == 2

    def test_multiple_classes_and_reset(self):
        collector = LocalPromptCollector(embed_dim=4)
        collector.add_batch(Tensor(RNG.standard_normal((6, 2, 4))), np.array([0, 1, 2, 0, 1, 2]))
        assert set(collector.local_prompt_group()) == {0, 1, 2}
        collector.reset()
        assert len(collector) == 0

    def test_validation(self):
        collector = LocalPromptCollector(embed_dim=4)
        with pytest.raises(ValueError):
            collector.add_batch(Tensor(RNG.standard_normal((2, 3, 5))), np.array([0, 1]))
        with pytest.raises(ValueError):
            collector.add_batch(Tensor(RNG.standard_normal((2, 3, 4))), np.array([0]))


class TestGlobalPromptStore:
    def test_replace_and_queries(self):
        store = GlobalPromptStore(num_classes=3, embed_dim=4)
        assert store.is_empty
        store.replace({0: np.ones((2, 4)), 1: np.zeros(4)})
        assert len(store) == 3
        assert store.class_prompts(0).shape == (2, 4)
        assert store.class_prompts(1).shape == (1, 4)
        assert store.class_prompts(2).shape == (0, 4)
        assert store.all_prompts().shape == (3, 4)
        assert store.prompts_excluding(0).shape == (1, 4)

    def test_averaged_prompt_matrix_covers_all_classes(self):
        store = GlobalPromptStore(num_classes=3, embed_dim=4)
        assert store.averaged_prompt_matrix() is None
        store.replace({0: np.full((2, 4), 2.0)})
        matrix = store.averaged_prompt_matrix()
        assert matrix.shape == (3, 4)
        assert np.allclose(matrix[0], 2.0)
        assert np.allclose(matrix[2], 2.0)  # falls back to overall mean

    def test_payload_roundtrip(self):
        store = GlobalPromptStore(num_classes=2, embed_dim=4)
        store.replace({1: RNG.standard_normal((3, 4))})
        payload = store.to_payload()
        rebuilt = GlobalPromptStore.from_payload(payload, num_classes=2, embed_dim=4)
        assert np.allclose(rebuilt.class_prompts(1), store.class_prompts(1))
        assert rebuilt.payload_bytes() == store.payload_bytes()

    def test_validation(self):
        store = GlobalPromptStore(num_classes=2, embed_dim=4)
        with pytest.raises(ValueError):
            store.replace({0: np.ones((2, 5))})
        with pytest.raises(KeyError):
            store.replace({7: np.ones((1, 4))})
        with pytest.raises(ValueError):
            GlobalPromptStore(num_classes=0, embed_dim=4)


class TestPromptClustering:
    def test_few_prompts_pass_through(self):
        vectors = RNG.standard_normal((2, 6))
        assert np.allclose(cluster_class_prompts(vectors), vectors)

    def test_domain_separated_prompts_yield_multiple_representatives(self):
        domain_a = np.tile(np.array([5.0, 0.0, 0.0, 0.0]), (6, 1)) + RNG.normal(0, 0.05, (6, 4))
        domain_b = np.tile(np.array([0.0, 5.0, 0.0, 0.0]), (6, 1)) + RNG.normal(0, 0.05, (6, 4))
        representatives = cluster_class_prompts(np.vstack([domain_a, domain_b]))
        assert 2 <= representatives.shape[0] <= 12

    def test_max_representatives_cap(self):
        vectors = RNG.standard_normal((30, 4))
        assert cluster_class_prompts(vectors, max_representatives=3).shape[0] <= 3

    def test_cluster_prompt_groups_merges_clients_and_existing(self):
        groups = [{0: np.ones(4), 1: np.zeros(4)}, {0: np.full(4, 2.0)}]
        existing = {1: np.full((1, 4), 5.0)}
        clustered = cluster_prompt_groups(groups, existing=existing)
        assert set(clustered) == {0, 1}
        assert clustered[0].shape[1] == 4
        assert clustered[1].shape[0] >= 1


class TestTemperatureDecay:
    def test_paper_equation_values(self):
        config = DPCLConfig(tau=0.9, tau_min=0.3, gamma=0.1, beta=0.05)
        # tau' = tau * (1 - (gamma + (t-1) beta)) until the floor is hit.
        assert decayed_temperature(config, 1) == pytest.approx(0.9 * (1 - 0.1))
        assert decayed_temperature(config, 3) == pytest.approx(0.9 * (1 - 0.2))
        assert decayed_temperature(config, 100) == pytest.approx(0.3)

    def test_table8_default_row(self):
        config = DPCLConfig(tau=0.9, tau_min=0.3, gamma=0.1, beta=0.05)
        assert decayed_temperature(config, 3) == pytest.approx(0.72)

    def test_decay_disabled(self):
        config = DPCLConfig(tau=0.9, tau_min=0.3, gamma=0.1, beta=0.05, enable_decay=False)
        assert decayed_temperature(config, 5) == pytest.approx(0.9)

    def test_monotone_non_increasing_in_task(self):
        config = DPCLConfig()
        temps = [decayed_temperature(config, t) for t in range(1, 10)]
        assert all(a >= b for a, b in zip(temps, temps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            DPCLConfig(tau=0.2, tau_min=0.3)
        with pytest.raises(ValueError):
            DPCLConfig(gamma=1.5)
        with pytest.raises(ValueError):
            decayed_temperature(DPCLConfig(), 0)

    @given(st.integers(1, 20), st.floats(0.4, 0.95), st.floats(0.01, 0.2))
    @settings(max_examples=30, deadline=None)
    def test_temperature_stays_in_valid_range(self, task, tau, beta):
        config = DPCLConfig(tau=tau, tau_min=0.3 if tau >= 0.3 else tau, gamma=0.1, beta=beta)
        temp = decayed_temperature(config, task)
        assert config.tau_min - 1e-12 <= temp <= config.tau + 1e-12


class TestDPCLLoss:
    def _store(self):
        store = GlobalPromptStore(num_classes=2, embed_dim=4)
        store.replace(
            {
                0: np.stack([np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0])]),
                1: np.array([[0, 1.0, 0, 0]]),
            }
        )
        return store

    def test_empty_store_returns_none(self):
        store = GlobalPromptStore(num_classes=2, embed_dim=4)
        prompts = Tensor(RNG.standard_normal((3, 2, 4)))
        assert dpcl_loss(prompts, np.array([0, 1, 0]), store, ClientGroup.NEW, 0.5) is None

    def test_aligned_prompts_give_lower_loss_than_misaligned(self):
        store = self._store()
        aligned = Tensor(np.tile(np.array([1.0, 0, 0, 0]), (2, 2, 1)))
        misaligned = Tensor(np.tile(np.array([0.0, 1.0, 0, 0]), (2, 2, 1)))
        labels = np.array([0, 0])
        low = dpcl_loss(aligned, labels, store, ClientGroup.NEW, 0.5)
        high = dpcl_loss(misaligned, labels, store, ClientGroup.NEW, 0.5)
        assert float(low.data) < float(high.data)

    def test_in_between_uses_two_positives(self):
        store = self._store()
        prompts = Tensor(RNG.standard_normal((2, 2, 4)))
        labels = np.array([0, 0])
        loss_new = dpcl_loss(prompts, labels, store, ClientGroup.NEW, 0.5)
        loss_between = dpcl_loss(prompts, labels, store, ClientGroup.IN_BETWEEN, 0.5)
        # With two positives the numerator can only grow, so the loss cannot be larger.
        assert float(loss_between.data) <= float(loss_new.data) + 1e-9

    def test_gradient_flows_to_prompts(self):
        store = self._store()
        prompts = Tensor(RNG.standard_normal((3, 2, 4)), requires_grad=True)
        loss = dpcl_loss(prompts, np.array([0, 1, 0]), store, ClientGroup.NEW, 0.5)
        loss.backward()
        assert prompts.grad is not None

    def test_temperature_validation(self):
        store = self._store()
        prompts = Tensor(RNG.standard_normal((1, 2, 4)))
        with pytest.raises(ValueError):
            dpcl_loss(prompts, np.array([0]), store, ClientGroup.NEW, 0.0)

    def test_unknown_class_samples_are_skipped(self):
        store = GlobalPromptStore(num_classes=3, embed_dim=4)
        store.replace({0: np.ones((1, 4))})
        prompts = Tensor(RNG.standard_normal((2, 2, 4)))
        # Class 2 has no global prompts and class 0 has no negatives -> loss is None.
        assert dpcl_loss(prompts, np.array([2, 2]), store, ClientGroup.NEW, 0.5) is None


@st.composite
def _dpcl_cases(draw):
    """A store (some classes empty or single-prompt, rows possibly
    duplicated), a batch of prompts with labels, a group and a temperature."""
    num_classes = draw(st.integers(1, 4))
    dim = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    representatives = {}
    for label in range(num_classes):
        size = draw(st.integers(0, 3))
        if size == 0:
            continue
        rows = rng.standard_normal((size, dim))
        if size > 1 and draw(st.booleans()):
            rows[draw(st.integers(1, size - 1))] = rows[0]  # exact tie
        representatives[label] = rows
    batch = draw(st.integers(1, 6))
    labels = rng.integers(0, num_classes, size=batch)
    prompts = rng.standard_normal((batch, draw(st.integers(1, 3)), dim))
    group = draw(st.sampled_from([ClientGroup.NEW, ClientGroup.OLD, ClientGroup.IN_BETWEEN]))
    temperature = draw(st.floats(0.2, 1.0))
    return num_classes, dim, representatives, prompts, labels, group, temperature


class TestDPCLMatchesPerSampleReference:
    """The batch-wide ``dpcl_loss`` against the per-sample loop it replaced."""

    @staticmethod
    def _loss_and_grad(fn, prompts, labels, store, group, temperature):
        tensor = Tensor(prompts.copy(), requires_grad=True)
        loss = fn(tensor, labels, store, group, temperature)
        if loss is None:
            return None, None
        loss.backward()
        return float(loss.data), tensor.grad

    @given(_dpcl_cases())
    @settings(max_examples=150, deadline=None)
    def test_loss_and_gradient_match_reference(self, case):
        num_classes, dim, representatives, prompts, labels, group, temperature = case
        store = GlobalPromptStore(num_classes=num_classes, embed_dim=dim)
        store.replace(representatives)
        with default_dtype(np.float64):
            expected, expected_grad = self._loss_and_grad(
                _reference_dpcl_loss, prompts, labels, store, group, temperature
            )
            actual, actual_grad = self._loss_and_grad(
                dpcl_loss, prompts, labels, store, group, temperature
            )
        if expected is None:
            assert actual is None
            return
        assert actual == pytest.approx(expected, abs=1e-10)
        np.testing.assert_allclose(actual_grad, expected_grad, rtol=0, atol=1e-10)

    def test_every_sample_skipped_returns_none_in_both(self):
        # Class 0's single prompt is the whole store: no negatives remain;
        # class 1 has no prompts at all.
        store = GlobalPromptStore(num_classes=2, embed_dim=3)
        store.replace({0: RNG.standard_normal((1, 3))})
        prompts = Tensor(RNG.standard_normal((4, 2, 3)))
        labels = np.array([0, 1, 0, 1])
        for group in ClientGroup:
            assert _reference_dpcl_loss(prompts, labels, store, group, 0.5) is None
            assert dpcl_loss(prompts, labels, store, group, 0.5) is None

    def test_cosine_ties_break_to_lowest_index(self):
        # e1+e2 and e1+e3 are equally close to the anchor e1 but pull it in
        # different directions, so which one is the positive shows in the
        # gradient: both implementations must pick the lower row.
        eye = np.eye(4)
        prompts = np.tile(eye[0], (2, 1, 1))
        labels = np.array([0, 0])
        grads = []
        for rows in ([eye[0] + eye[1], eye[0] + eye[2]], [eye[0] + eye[2], eye[0] + eye[1]]):
            store = GlobalPromptStore(num_classes=2, embed_dim=4)
            store.replace({0: np.stack(rows), 1: eye[3:]})
            expected, expected_grad = self._loss_and_grad(
                _reference_dpcl_loss, prompts, labels, store, ClientGroup.NEW, 0.7
            )
            actual, actual_grad = self._loss_and_grad(
                dpcl_loss, prompts, labels, store, ClientGroup.NEW, 0.7
            )
            assert actual == pytest.approx(expected, abs=1e-10)
            np.testing.assert_allclose(actual_grad, expected_grad, rtol=0, atol=1e-10)
            grads.append(actual_grad)
        assert not np.allclose(grads[0], grads[1])


class TestGPLLoss:
    def test_none_without_global_prompts(self, tiny_backbone_config):
        backbone = PromptedBackbone(tiny_backbone_config)
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        patches = backbone.patch_tokens(images)
        assert gpl_loss(backbone, patches, np.array([0, 1]), None) is None

    def test_scalar_loss_with_prompts(self, tiny_backbone_config):
        backbone = PromptedBackbone(tiny_backbone_config)
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        patches = backbone.patch_tokens(images)
        prompts = RNG.standard_normal((tiny_backbone_config.num_classes, tiny_backbone_config.embed_dim))
        loss = gpl_loss(backbone, patches, np.array([0, 1]), prompts)
        assert loss.data.size == 1
        loss.backward()
        assert backbone.classifier.head.weight.grad is not None


class TestRefFiLModel:
    def test_composite_state_dict_contains_both_parts(self, tiny_backbone_config):
        model = RefFiLModel(tiny_backbone_config, prompt_length=3, max_tasks=4)
        keys = model.state_dict().keys()
        assert any(key.startswith("backbone.") for key in keys)
        assert any(key.startswith("cdap.") for key in keys)

    def test_generate_prompts_shapes(self, tiny_backbone_config):
        model = RefFiLModel(tiny_backbone_config, prompt_length=3, max_tasks=4)
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        assert model.generate_prompts(images, task_id=1).shape == (2, 3, tiny_backbone_config.embed_dim)
        assert model.generate_prompts(images, task_id=None).shape == (2, 3, tiny_backbone_config.embed_dim)

    def test_forward_with_and_without_prompts(self, tiny_backbone_config):
        model = RefFiLModel(tiny_backbone_config, prompt_length=3, max_tasks=4)
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        plain = model(images)
        prompted = model(images, model.generate_prompts(images, task_id=0))
        assert plain.shape == prompted.shape == (2, tiny_backbone_config.num_classes)
