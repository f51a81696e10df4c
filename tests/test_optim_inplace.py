"""Bit-parity of the in-place optimiser steps vs the historical implementations.

The scratch-buffer ``SGD.step``/``clip_grad_norm`` and the flat-slab
``Adam.step`` must produce *bit-identical* parameter trajectories (every
expression was rewritten operation for operation, and elementwise IEEE
arithmetic does not care how elements are partitioned into arrays), and must
keep installing a fresh ``param.data`` array each step because the inference
fast paths key their caches off array identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import EncoderConfig
from repro.core.policy import ActorCriticNetwork
from repro.encoder import RunStateFeaturizer, StateEncoder
from repro.nn import SGD, Adam, clip_grad_norm
from repro.nn.optim import adam_passes
from repro.nn.layers import Parameter
from repro.perf.model import ConcurrentPredictionModel


def reference_clip_grad_norm(parameters, max_norm):
    """The pre-rewrite out-of-place implementation, verbatim."""
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for param in params:
            param.grad = param.grad * scale
    return total


class ReferenceSGD:
    """The pre-rewrite SGD step, verbatim."""

    def __init__(self, parameters, lr=1e-2, momentum=0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            velocity *= self.momentum
            velocity -= self.lr * param.grad
            param.data = param.data + velocity


class ReferenceAdam:
    """The pre-rewrite Adam step, verbatim."""

    def __init__(self, parameters, lr=3e-4, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class ScratchSlabAdam(Adam):
    """The flat-slab step as it ran with a scratch slab of its own, verbatim.

    It kept a fourth slab beside ``m``/``v``/``_grad`` for the step and
    subtracted it into the fresh result slab; ``Adam`` now takes the step in
    the result slab itself.  Kept as the oracle of that change.
    """

    def __init__(self, parameters, **kwargs):
        super().__init__(parameters, **kwargs)
        self._scratch = np.empty(self._offsets[-1])

    def step(self):
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        params, offsets, installed = self.parameters, self._offsets, self._installed
        result = np.empty(offsets[-1])
        fresh = [None] * len(params)
        for first, last in self._runs():
            run = slice(offsets[first], offsets[last])
            grad, buf, m, v = self._grad[run], self._scratch[run], self._m[run], self._v[run]
            np.concatenate([p.grad.ravel() for p in params[first:last]], out=grad)
            if all(params[i].data is installed[i] for i in range(first, last)):
                data = self._data[run]
            else:
                data = np.concatenate([p.data.ravel() for p in params[first:last]])
            if self.weight_decay:
                np.multiply(data, self.weight_decay, out=buf)
                grad += buf
            adam_passes(grad, m, v, buf, self.lr, (self.beta1, self.beta2), self.eps, bias1, bias2)
            np.subtract(data, buf, out=result[run])
            for i in range(first, last):
                fresh[i] = params[i].data = result[offsets[i] : offsets[i + 1]].reshape(params[i].data.shape)
        self._data = result
        self._installed = fresh


def make_params(rng, shapes=((4, 3), (3,), (5, 5), (2,))):
    return [Parameter(rng.normal(size=shape), name=f"p{i}") for i, shape in enumerate(shapes)]


def clone_params(params):
    return [Parameter(p.data.copy(), name=p.name) for p in params]


def set_grads(params, rng, skip_index=None):
    for index, param in enumerate(params):
        if index == skip_index:
            param.grad = None
        else:
            param.grad = rng.normal(size=param.data.shape)


def assert_bitwise_equal(a, b, label):
    assert a.shape == b.shape and a.dtype == b.dtype, label
    assert a.tobytes() == b.tobytes(), f"{label}: arrays differ bitwise"


def assert_adam_matches_reference(new, ref, label):
    """Parameters and both moments of the slab ``Adam`` equal the per-parameter oracle's."""
    for index, (p_new, p_ref) in enumerate(zip(new.parameters, ref.parameters)):
        assert_bitwise_equal(p_new.data, p_ref.data, f"{label} {p_new.name}")
        span = slice(new._offsets[index], new._offsets[index + 1])
        assert_bitwise_equal(new._m[span], ref._m[index].ravel(), f"{label} first moment {index}")
        assert_bitwise_equal(new._v[span], ref._v[index].ravel(), f"{label} second moment {index}")


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_sgd_bit_parity(momentum):
    rng = np.random.default_rng(0)
    params_new = make_params(rng)
    params_ref = clone_params(params_new)
    new = SGD(params_new, lr=0.05, momentum=momentum)
    ref = ReferenceSGD(params_ref, lr=0.05, momentum=momentum)
    grad_rng_a, grad_rng_b = np.random.default_rng(1), np.random.default_rng(1)
    for step in range(5):
        skip = 2 if step == 3 else None
        set_grads(params_new, grad_rng_a, skip_index=skip)
        set_grads(params_ref, grad_rng_b, skip_index=skip)
        new.step()
        ref.step()
        for p_new, p_ref in zip(params_new, params_ref):
            assert_bitwise_equal(p_new.data, p_ref.data, f"sgd step {step} {p_new.name}")


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_bit_parity(weight_decay):
    rng = np.random.default_rng(2)
    params_new = make_params(rng)
    params_ref = clone_params(params_new)
    new = Adam(params_new, lr=3e-3, weight_decay=weight_decay)
    ref = ReferenceAdam(params_ref, lr=3e-3, weight_decay=weight_decay)
    grad_rng_a, grad_rng_b = np.random.default_rng(3), np.random.default_rng(3)
    for step in range(6):
        skip = 1 if step in (2, 4) else None
        set_grads(params_new, grad_rng_a, skip_index=skip)
        set_grads(params_ref, grad_rng_b, skip_index=skip)
        new.step()
        ref.step()
        assert_adam_matches_reference(new, ref, f"adam step {step}")


def test_clip_grad_norm_bit_parity():
    rng = np.random.default_rng(4)
    for max_norm in (0.5, 1e6):
        params_new = make_params(rng)
        params_ref = clone_params(params_new)
        grad_rng_a, grad_rng_b = np.random.default_rng(5), np.random.default_rng(5)
        set_grads(params_new, grad_rng_a, skip_index=3)
        set_grads(params_ref, grad_rng_b, skip_index=3)
        norm_new = clip_grad_norm(params_new, max_norm)
        norm_ref = reference_clip_grad_norm(params_ref, max_norm)
        assert norm_new == norm_ref
        for p_new, p_ref in zip(params_new, params_ref):
            if p_new.grad is None:
                assert p_ref.grad is None
                continue
            assert_bitwise_equal(p_new.grad, p_ref.grad, "clipped grad")


def test_optimizers_install_fresh_param_data():
    """Identity-keyed inference caches require ``param.data`` replacement."""
    rng = np.random.default_rng(6)
    for optimizer_cls in (lambda ps: SGD(ps, lr=0.1, momentum=0.9), lambda ps: Adam(ps, lr=1e-3)):
        params = make_params(rng)
        optimizer = optimizer_cls(params)
        for _ in range(3):
            before = [id(p.data) for p in params]
            set_grads(params, rng)
            optimizer.step()
            after = [id(p.data) for p in params]
            assert all(a != b for a, b in zip(before, after))


def test_step_skips_none_grads_without_touching_param():
    rng = np.random.default_rng(7)
    params = make_params(rng)
    optimizer = Adam(params, lr=1e-2)
    params[0].grad = None
    for param in params[1:]:
        param.grad = rng.normal(size=param.data.shape)
    frozen = params[0].data
    optimizer.step()
    assert params[0].data is frozen
    assert np.all(optimizer._m[: optimizer._offsets[1]] == 0.0)


def _simulator_parameters():
    model = ConcurrentPredictionModel(feature_dim=38, hidden_dim=48, rng=np.random.default_rng(8))
    return model, 26, 25_634


def _policy_parameters():
    config = EncoderConfig()
    rng = np.random.default_rng(9)
    encoder = StateEncoder(config.plan_embedding_dim, RunStateFeaturizer(8), config, rng)
    return ActorCriticNetwork(encoder, 8, rng), 57, 66_794


@pytest.mark.parametrize("build", [_simulator_parameters, _policy_parameters], ids=["simulator", "policy"])
def test_adam_bit_parity_on_real_parameter_sets(build):
    """50 steps over the default-size simulator model and policy, keep-best restore included."""
    module, num_arrays, num_elements = build()
    params_new = list(module.parameters())
    assert (len(params_new), sum(p.data.size for p in params_new)) == (num_arrays, num_elements)
    params_ref = clone_params(params_new)
    new, ref = Adam(params_new, lr=1e-3), ReferenceAdam(params_ref, lr=1e-3)
    grad_rng_a, grad_rng_b = np.random.default_rng(10), np.random.default_rng(10)
    best = module.state_dict()
    for step in range(50):
        if step == 20:
            best = module.state_dict()
        if step == 35:
            # The keep-best restore rebinds every param.data between two steps.
            module.load_state_dict(best)
            for p_ref, value in zip(params_ref, best.values()):
                p_ref.data = value.copy()
        set_grads(params_new, grad_rng_a)
        set_grads(params_ref, grad_rng_b)
        new.step()
        ref.step()
        assert_adam_matches_reference(new, ref, f"step {step}")


def test_adam_none_grad_in_the_middle_splits_the_slab_into_two_runs():
    rng = np.random.default_rng(11)
    params_new = make_params(rng)
    params_ref = clone_params(params_new)
    new, ref = Adam(params_new, lr=3e-3), ReferenceAdam(params_ref, lr=3e-3)
    grad_rng_a, grad_rng_b = np.random.default_rng(12), np.random.default_rng(12)
    frozen = params_new[2].data
    for step in range(4):
        set_grads(params_new, grad_rng_a, skip_index=2)
        set_grads(params_ref, grad_rng_b, skip_index=2)
        assert new._runs() == [(0, 2), (3, 4)]
        new.step()
        ref.step()
        assert params_new[2].data is frozen
        assert_adam_matches_reference(new, ref, f"step {step}")
    assert np.all(new._m[new._offsets[2] : new._offsets[3]] == 0.0)
    assert np.all(new._v[new._offsets[2] : new._offsets[3]] == 0.0)
    # The skipped parameter joins later steps with its moments still at zero.
    set_grads(params_new, grad_rng_a)
    set_grads(params_ref, grad_rng_b)
    new.step()
    ref.step()
    assert params_new[2].data is not frozen
    assert_adam_matches_reference(new, ref, "rejoined")


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_takes_the_step_in_its_result_slab_bit_identically(weight_decay):
    """No scratch slab: three flat slabs of state, and the weights and moments
    of the scratch-slab step after skips, a rebind and weight decay."""
    rng = np.random.default_rng(17)
    params_new = make_params(rng)
    params_old = clone_params(params_new)
    new = Adam(params_new, lr=3e-3, weight_decay=weight_decay)
    old = ScratchSlabAdam(params_old, lr=3e-3, weight_decay=weight_decay)
    assert not hasattr(new, "_scratch")
    total = new._offsets[-1]
    assert [slab.size for slab in (new._m, new._v, new._grad)] == [total] * 3
    grad_rng_a, grad_rng_b = np.random.default_rng(18), np.random.default_rng(18)
    for step in range(8):
        if step == 5:
            # A rebind between steps takes the gather path on both sides.
            for p_new, p_old in zip(params_new, params_old):
                p_new.data, p_old.data = p_new.data.copy(), p_old.data.copy()
        skip = 2 if step in (1, 3) else None
        set_grads(params_new, grad_rng_a, skip_index=skip)
        set_grads(params_old, grad_rng_b, skip_index=skip)
        new.step()
        old.step()
        for p_new, p_old in zip(params_new, params_old):
            assert_bitwise_equal(p_new.data, p_old.data, f"step {step} {p_new.name}")
        assert_bitwise_equal(new._m, old._m, f"step {step} first moment")
        assert_bitwise_equal(new._v, old._v, f"step {step} second moment")


def test_adam_gathers_non_contiguous_grads():
    """``mha_backward`` installs column slices of one fused QKV gradient."""
    rng = np.random.default_rng(13)
    params_new = make_params(rng, shapes=((6, 4), (6, 4), (6, 4), (4,), (4,), (4,)))
    params_ref = clone_params(params_new)
    new, ref = Adam(params_new, lr=3e-3), ReferenceAdam(params_ref, lr=3e-3)
    for step in range(3):
        g_weight, g_bias = rng.normal(size=(6, 12)), rng.normal(size=12)
        for params in (params_new, params_ref):
            for index in range(3):
                sl = slice(4 * index, 4 * (index + 1))
                params[index].grad, params[3 + index].grad = g_weight[:, sl], g_bias[sl]
        assert not params_new[0].grad.flags.c_contiguous
        new.step()
        ref.step()
        assert_adam_matches_reference(new, ref, f"step {step}")


def test_adam_step_leaves_held_param_data_reading_the_old_values():
    rng = np.random.default_rng(14)
    params = make_params(rng)
    optimizer = Adam(params, lr=1e-2)
    for _ in range(3):
        held = [p.data for p in params]
        copies = [p.data.copy() for p in params]
        set_grads(params, rng)
        optimizer.step()
        for array, copy, param in zip(held, copies, params):
            assert_bitwise_equal(array, copy, "held reference")
            assert not np.shares_memory(array, param.data)


def test_adam_state_dict_resumes_bit_identically():
    rng = np.random.default_rng(15)
    params_whole = make_params(rng)
    params_first = clone_params(params_whole)
    grads = [[rng.normal(size=p.data.shape) for p in params_whole] for _ in range(7)]

    def run(optimizer, steps):
        for step_grads in steps:
            for param, grad in zip(optimizer.parameters, step_grads):
                param.grad = grad.copy()
            optimizer.step()

    whole = Adam(params_whole, lr=3e-3, weight_decay=0.01)
    run(whole, grads)
    first = Adam(params_first, lr=3e-3, weight_decay=0.01)
    run(first, grads[:4])
    state = first.state_dict()
    resumed = Adam(clone_params(params_first), lr=3e-3, weight_decay=0.01)
    resumed.load_state_dict(state)
    run(first, grads[4:5])  # the saved state is a copy, not a view of the live moments
    run(resumed, grads[4:])
    assert resumed.state_dict()["step"] == 7
    for p_resumed, p_whole in zip(resumed.parameters, params_whole):
        assert_bitwise_equal(p_resumed.data, p_whole.data, f"resumed {p_whole.name}")
    assert_bitwise_equal(resumed._m, whole._m, "resumed first moment")
    assert_bitwise_equal(resumed._v, whole._v, "resumed second moment")


def test_adam_load_state_dict_rejects_a_wrong_sized_slab():
    rng = np.random.default_rng(16)
    state = Adam(make_params(rng), lr=1e-3).state_dict()
    other = Adam(make_params(rng, shapes=((4, 3), (3,))), lr=1e-3)
    with pytest.raises(ValueError, match=r"holds 42 and 42 moment elements, the parameters 15"):
        other.load_state_dict(state)
    assert other.state_dict()["step"] == 0
