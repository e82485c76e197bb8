"""Tests for the compile-time plan optimizer (repro.autograd.planopt).

The contract under test is absolute: optimized replay is *bit-for-bit*
identical to unoptimized replay (and hence to eager) — losses, every leaf
gradient, dtype for dtype — while dropping dead records, fusing elementwise
chains and serving intermediates plus gradient accumulators from reused
buffers.  Anything weaker would change whole-run hashes and the
unoptimized reference would stop being a reference.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, functional as F
from repro.autograd.tape import (
    Plan,
    PlanCache,
    Tape,
    _FINGERPRINTS,
    bits_equal,
    model_fingerprint,
    tracing,
)
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter

RNG = np.random.default_rng(7)


def _compile(build, optimize):
    """Trace ``build(tape) -> (loss, slots_of_interest)`` into a Plan."""
    tape = Tape()
    with tracing(tape):
        loss, extras = build(tape)
    return Plan(tape, loss, optimize=optimize), extras


def _square_loss(tape):
    w = Parameter(RNG.standard_normal((3, 3)))
    x = Tensor(RNG.standard_normal((2, 3)))
    tape.mark_input("x", x)
    return ((x @ w) ** 2).sum(), None


def _compile_default(build):
    tape = Tape()
    with tracing(tape):
        loss, _ = build(tape)
    return Plan(tape, loss)


class TestOptimizeKnob:
    def test_default_on_and_mode_restores(self):
        # Optimization is on by default and is chosen per plan: compiling an
        # unoptimized plan leaves the next default plan optimized.
        assert _compile_default(_square_loss).opt is not None
        plan_off, _ = _compile(_square_loss, optimize=False)
        assert plan_off.opt is None
        assert _compile_default(_square_loss).opt is not None

    def test_plan_respects_explicit_override(self):
        plan_off, _ = _compile(_square_loss, optimize=False)
        plan_forced, _ = _compile(_square_loss, optimize=True)
        assert plan_off.opt is None
        assert plan_forced.opt is not None


class TestDeadCodeElimination:
    def test_metrics_subgraph_dropped_and_parity_kept(self):
        w = Parameter(RNG.standard_normal((4, 4)))
        x_np = RNG.standard_normal((4, 4))

        def build(tape):
            x = Tensor(x_np)
            tape.mark_input("x", x)
            h = F.tanh(x @ w)
            # Metrics-only subgraph: recorded, never reaches the loss.
            _accuracy_like = (h * 3.0).sum()
            loss = (h * h).mean()
            return loss, None

        plan_opt, _ = _compile(build, optimize=True)
        plan_ref, _ = _compile(build, optimize=False)
        assert plan_opt.opt is not None
        assert len(plan_opt.opt.dropped) >= 2  # the mul-by-3 and its sum
        # Dropped records are exactly the ones outside the loss's ancestry.
        loss_ancestors = set(plan_opt.order)
        for i in plan_opt.opt.dropped:
            out = plan_opt.records[i].out_slot
            assert out is not None and out not in loss_ancestors

        x2 = RNG.standard_normal((4, 4))
        loss_a, grads_a = plan_opt.execute({"x": x2})
        loss_b, grads_b = plan_ref.execute({"x": x2})
        assert bits_equal(loss_a, loss_b)
        assert set(grads_a) == set(grads_b)
        for slot in grads_a:
            assert grads_a[slot].dtype == grads_b[slot].dtype
            assert bits_equal(grads_a[slot], grads_b[slot])

    def test_nothing_dropped_when_everything_feeds_loss(self):
        w = Parameter(RNG.standard_normal((3, 3)))

        def build(tape):
            x = Tensor(RNG.standard_normal((3, 3)))
            tape.mark_input("x", x)
            return (F.sigmoid(x @ w)).sum(), None

        plan, _ = _compile(build, optimize=True)
        assert plan.opt is not None
        assert plan.opt.dropped == ()


class TestLivenessAndFusion:
    def _diamond(self, optimize):
        rng = np.random.default_rng(11)
        w = Parameter(rng.standard_normal((4, 4)))
        x_np = rng.standard_normal((4, 4))
        slots = {}

        def build(tape):
            x = Tensor(x_np)
            tape.mark_input("x", x)
            a = x @ w       # not fusable (matmul), two consumers below
            b = F.tanh(a)   # single-consumer elementwise ...
            c = a * b       # ... adjacent: fuses with b
            loss = c.sum()
            slots.update(a=tape._slots[id(a)], b=tape._slots[id(b)], c=tape._slots[id(c)])
            return loss, None

        plan, _ = _compile(build, optimize=optimize)
        return plan, slots

    def test_last_use_indices(self):
        plan, slots = self._diamond(optimize=True)
        opt = plan.opt
        assert opt is not None
        # Program: [matmul a], [fused tanh;mul -> c], [sum -> loss].
        assert opt.chains == ((1, 2),)
        assert len(opt.program) == 3
        assert opt.last_read[slots["a"]] == 1  # read by both members of the chain
        assert opt.last_read[slots["c"]] == 2  # read by the final sum
        assert slots["b"] not in opt.last_read  # chain-interior: never hits env
        # The fused instruction releases `a` (its last reader); the sum
        # releases `c`.
        assert slots["a"] in opt.program[1].releases
        assert slots["c"] in opt.program[2].releases

    def test_fused_chain_parity_including_grads(self):
        plan_opt, slots = self._diamond(optimize=True)
        plan_ref, _ = self._diamond(optimize=False)
        x2 = RNG.standard_normal((4, 4))
        loss_a, grads_a = plan_opt.execute({"x": x2})
        loss_b, grads_b = plan_ref.execute({"x": x2})
        assert bits_equal(loss_a, loss_b)
        for slot in grads_b:
            assert bits_equal(grads_a[slot], grads_b[slot])

    def test_env_entries_released_after_execute(self):
        plan, slots = self._diamond(optimize=True)
        plan.execute({"x": RNG.standard_normal((4, 4))})
        env = plan.opt._env
        assert env[slots["a"]] is None
        assert env[slots["c"]] is None
        assert env[plan.loss_slot] is None


class TestBufferArena:
    def _aliased_shapes(self, optimize):
        """Two same-shaped intermediates with disjoint lifetimes: the arena
        must serve the second from the first's buffer without corrupting
        either the forward values or the gradients."""
        rng = np.random.default_rng(13)
        w = Parameter(rng.standard_normal((4, 4)))
        x_np = rng.standard_normal((4, 4))
        slots = {}

        def build(tape):
            x = Tensor(x_np)
            tape.mark_input("x", x)
            a = x + w       # arena-served; dead after the sum below
            s = a.sum()
            b = x - w       # same shape/dtype as `a`, allocated later
            loss = b.sum() * s
            slots.update(a=tape._slots[id(a)], b=tape._slots[id(b)])
            return loss, None

        plan, _ = _compile(build, optimize=optimize)
        return plan, slots

    def test_aliased_shape_reuses_buffer(self):
        plan, slots = self._aliased_shapes(optimize=True)
        opt = plan.opt
        assert opt is not None
        buf_a = opt.buffer_for[slots["a"]]
        buf_b = opt.buffer_for[slots["b"]]
        assert buf_a is buf_b  # liveness proved `a` dead before `b`'s write

    def test_aliased_shape_parity(self):
        plan_opt, _ = self._aliased_shapes(optimize=True)
        plan_ref, _ = self._aliased_shapes(optimize=False)
        x2 = RNG.standard_normal((4, 4))
        loss_a, grads_a = plan_opt.execute({"x": x2})
        loss_b, grads_b = plan_ref.execute({"x": x2})
        assert bits_equal(loss_a, loss_b)
        for slot in grads_b:
            assert bits_equal(grads_a[slot], grads_b[slot])

    def test_retained_activations_never_pooled(self):
        # exp stashes its *output* for the vjp (ctx.out), so its buffer must
        # never be handed to a later record even when liveness says the env
        # entry is dead.
        rng = np.random.default_rng(17)
        w = Parameter(rng.standard_normal((4, 4)))
        x_np = rng.standard_normal((4, 4))

        def build(tape):
            x = Tensor(x_np)
            tape.mark_input("x", x)
            e = (x * 0.1).exp()
            s = e.sum()
            b = x - w
            return b.sum() * s, None

        plan, _ = _compile(build, optimize=True)
        plan_ref, _ = _compile(build, optimize=False)
        x2 = RNG.standard_normal((4, 4))
        loss_a, grads_a = plan.execute({"x": x2})
        loss_b, grads_b = plan_ref.execute({"x": x2})
        assert bits_equal(loss_a, loss_b)
        for slot in grads_b:
            assert bits_equal(grads_a[slot], grads_b[slot])

    def test_grad_buffer_layout_mirrors_unoptimized(self):
        # Matmul weight vjps (``a.T @ g``) come out F-contiguous, and
        # unoptimized replay hands them back that way (``astype`` keeps
        # order='K').  The grad buffers must mirror that layout: reductions
        # downstream of the returned grads — the optimizer's global clip
        # norm — sum in *memory* order, so a C-ordered buffer over the same
        # bits shifts the norm by an ulp and, once clipping fires, the
        # whole run.
        w = Parameter(RNG.standard_normal((8, 8)))
        x_np = RNG.standard_normal((8, 8))

        def build(tape):
            x = Tensor(x_np)
            tape.mark_input("x", x)
            return (x @ w).sum(), None

        plan_opt, _ = _compile(build, optimize=True)
        plan_ref, _ = _compile(build, optimize=False)
        x2 = RNG.standard_normal((8, 8))
        for _ in range(3):  # steady state: reused buffers, not first-alloc
            _, grads_a = plan_opt.execute({"x": x2})
            _, grads_b = plan_ref.execute({"x": x2})
        for slot in grads_b:
            a, b = grads_a[slot], grads_b[slot]
            assert bits_equal(a, b)
            assert a.flags.c_contiguous == b.flags.c_contiguous
            assert a.flags.f_contiguous == b.flags.f_contiguous
            # The observable contract: the same reduction over the same bits.
            assert repr(np.sum(a**2)) == repr(np.sum(b**2))

    def test_steady_state_reuses_forward_and_grad_buffers(self):
        w = Parameter(RNG.standard_normal((4, 4)))

        def build(tape):
            x = Tensor(RNG.standard_normal((4, 4)))
            tape.mark_input("x", x)
            return (F.tanh(x @ w + w) ** 2).sum(), None

        plan, _ = _compile(build, optimize=True)
        opt = plan.opt
        assert opt is not None and opt.buffer_for
        x2 = RNG.standard_normal((4, 4))
        _, grads_first = plan.execute({"x": x2})
        first = {slot: g for slot, g in grads_first.items()}
        _, grads_second = plan.execute({"x": x2})
        # Same accumulator objects step over step (the satellite fix), with
        # values identical to a fresh unoptimized replay.
        for slot, g in grads_second.items():
            assert g is first[slot]
        plan_ref, _ = _compile(build, optimize=False)
        _, grads_ref = plan_ref.execute({"x": x2})
        for slot in grads_ref:
            assert bits_equal(grads_second[slot], grads_ref[slot])


# Random-program property: the same op pool the tape parity test uses, plus a
# dead metrics branch, checked optimized-vs-unoptimized-vs-eager bitwise.
_PROGRAM_OPS = {
    "matmul0": lambda h, p0, p1: h @ p0,
    "add1": lambda h, p0, p1: h + p1,
    "mul0": lambda h, p0, p1: h * p0,
    "sub1": lambda h, p0, p1: h - p1,
    "div1": lambda h, p0, p1: h / (p1 * p1 + 1.0),
    "tanh": lambda h, p0, p1: F.tanh(h),
    "sigmoid": lambda h, p0, p1: F.sigmoid(h),
    "relu": lambda h, p0, p1: F.relu(h),
    "gelu": lambda h, p0, p1: F.gelu(h),
    "exp": lambda h, p0, p1: (h * 0.25).exp(),
    "scale": lambda h, p0, p1: h * 0.5,
    "square": lambda h, p0, p1: h * h,
    "norm": lambda h, p0, p1: F.l2_normalize(h),
    "softmax": lambda h, p0, p1: F.softmax(h),
}

# Ops safe under the lockstep batch rules (no matmul-on-batched-weight cases
# beyond what the pad rule covers; all appear in real traced models).
_BATCHED_OPS = ["add1", "mul0", "sub1", "tanh", "sigmoid", "relu", "scale", "square"]


def _run_program(codes, x, p0, p1, dead):
    h = x
    for code in codes:
        h = _PROGRAM_OPS[code](h, p0, p1)
    if dead:
        _ = (h * 3.0).sum()  # metrics-only: DCE fodder
    return (h * h).mean()


class TestRandomProgramProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        codes=st.lists(st.sampled_from(sorted(_PROGRAM_OPS)), min_size=1, max_size=8),
        dead=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # Overflows to inf and then NaN: identical bits that NaN != NaN hides.
    @example(codes=["add1", "add1", "matmul0", "square", "exp", "exp"], dead=False, seed=0)
    def test_optimized_replay_bitwise_equals_unoptimized_and_eager(
        self, codes, dead, seed
    ):
        rng = np.random.default_rng(seed)
        p0 = Parameter(rng.standard_normal((4, 4)))
        p1 = Parameter(rng.standard_normal((4, 4)))
        x_np = rng.standard_normal((4, 4))

        tape = Tape()
        with tracing(tape):
            x = Tensor(x_np)
            tape.mark_input("x", x)
            loss = _run_program(codes, x, p0, p1, dead)
        plan_opt = Plan(tape, loss, optimize=True)
        plan_ref = Plan(tape, loss, optimize=False)
        assert plan_opt.opt is not None

        x2 = rng.standard_normal((4, 4))
        loss_a, grads_a = plan_opt.execute({"x": x2})
        loss_b, grads_b = plan_ref.execute({"x": x2})
        assert bits_equal(loss_a, loss_b)
        assert set(grads_a) == set(grads_b)
        for slot in grads_b:
            assert grads_a[slot].dtype == grads_b[slot].dtype
            assert bits_equal(grads_a[slot], grads_b[slot])

        p0.zero_grad(), p1.zero_grad()
        eager_loss = _run_program(codes, Tensor(x2), p0, p1, dead)
        if eager_loss.requires_grad:
            eager_loss.backward()
        assert bits_equal(loss_a, eager_loss.data)
        for param in (p0, p1):
            replayed = plan_opt.grad_for(param, grads_a)
            if param.grad is None:
                assert replayed is None
            else:
                assert bits_equal(replayed, param.grad)

    @settings(max_examples=25, deadline=None)
    @given(
        codes=st.lists(st.sampled_from(_BATCHED_OPS), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_optimized_batched_replay_bitwise_equals_unoptimized(self, codes, seed):
        rng = np.random.default_rng(seed)
        k = 3
        p0 = Parameter(rng.standard_normal((4, 4)))
        p1 = Parameter(rng.standard_normal((4, 4)))
        x_np = rng.standard_normal((4, 4))

        tape = Tape()
        with tracing(tape):
            x = Tensor(x_np)
            tape.mark_input("x", x)
            loss = _run_program(codes, x @ p0, p0, p1, dead=False)
        plan_opt = Plan(tape, loss, optimize=True)
        plan_ref = Plan(tape, loss, optimize=False)
        assert plan_opt.opt is not None

        # A program may never touch p1, in which case it has no leaf slot.
        slots = [slot for slot, _ in plan_opt.param_leaves]
        plan_opt.prepare_batched(slots)
        plan_ref.prepare_batched(slots)
        stacks = {
            slot: rng.standard_normal((k,) + p.data.shape)
            for slot, p in plan_opt.param_leaves
        }
        x_stack = rng.standard_normal((k, 4, 4))
        loss_a, grads_a = plan_opt.execute_batched(
            k, {"x": x_stack}, {slot: s.copy() for slot, s in stacks.items()}
        )
        loss_b, grads_b = plan_ref.execute_batched(
            k, {"x": x_stack}, {slot: s.copy() for slot, s in stacks.items()}
        )
        assert bits_equal(loss_a, loss_b)
        assert set(grads_a) == set(grads_b)
        for slot in grads_b:
            assert bits_equal(grads_a[slot], grads_b[slot])


class TestPlanCacheLRU:
    def test_eviction_order_and_counters(self):
        cache = PlanCache(max_plans=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: `b` becomes LRU
        cache.put("c", 3)  # evicts `b`
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2
        assert (cache.hits, cache.misses) == (3, 1)

    def test_put_refreshes_recency(self):
        cache = PlanCache(max_plans=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put refreshes `a`
        cache.put("c", 3)  # evicts `b`, not `a`
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            PlanCache(max_plans=0)


class TestFingerprintMemo:
    def _model(self):
        return Linear(3, 2, rng=np.random.default_rng(0))

    def test_memo_hit_returns_same_tuple(self):
        model = self._model()
        first = model_fingerprint(model)
        assert model_fingerprint(model) is first  # served from the memo

    def test_in_place_update_keeps_memo_valid(self):
        model = self._model()
        first = model_fingerprint(model)
        model.weight.data[...] += 1.0  # the SGD-step case: same storage
        assert model_fingerprint(model) is first

    def test_trainability_flip_invalidates(self):
        model = self._model()
        before = model_fingerprint(model)
        model.weight.requires_grad = False
        after = model_fingerprint(model)
        assert after != before

    def test_data_rebind_invalidates_probe(self):
        model = self._model()
        before = model_fingerprint(model)
        model.weight.data = model.weight.data.astype(np.float32)
        after = model_fingerprint(model)
        assert after != before  # dtype row changed, rebuilt not served stale

    def test_structure_change_invalidates(self):
        model = self._model()
        before = model_fingerprint(model)
        model.extra = Linear(2, 2, rng=np.random.default_rng(1))
        after = model_fingerprint(model)
        assert len(after) == len(before) + 2  # extra weight + bias rows

    def test_collected_model_evicted_from_memo(self):
        model = self._model()
        model_fingerprint(model)
        key = id(model)
        assert key in _FINGERPRINTS
        del model
        gc.collect()
        assert key not in _FINGERPRINTS

    def test_non_module_falls_back(self):
        class Bag:
            def __init__(self):
                self._p = Parameter(np.ones((2, 2)))

            def named_parameters(self):
                yield "p", self._p

        assert model_fingerprint(Bag()) == (("p", (2, 2), "float64", True),)
