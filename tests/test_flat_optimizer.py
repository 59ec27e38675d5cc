"""The flat-buffer optimizers against their per-parameter reference.

``RefSGD``, ``RefAdam`` and ``RefAdamW`` are the per-parameter
implementations that the flat-buffer optimizers replaced, kept as they
were; ``ref_clip_grad_norm`` is a frozen copy of ``clip_grad_norm``, whose
norm must keep adding per-parameter ``vdot`` values.  A small model whose middle parameter gets a gradient
only on odd steps (so even steps skip it and split the update into two
runs) trains under both, with clipping active on every step: parameters,
moments and clip norms must stay bitwise equal, and the state-dict
format must not change.  :func:`assert_bound` is the buffer guard: every
parameter still views ``optimizer.flat``, and every set gradient
``optimizer.grad``, at its own offset.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam, AdamW, clip_grad_norm
from repro.tensor.tensor import Tensor


# ----------------------------------------------------------------------
# The per-parameter reference
# ----------------------------------------------------------------------
class RefOptimizer:
    def __init__(self, parameters, lr):
        self.parameters = list(parameters)
        self.lr = float(lr)

    def zero_grad(self):
        for param in self.parameters:
            param.zero_grad()

    def state_dict(self):
        return {"kind": type(self).__name__[3:].lower(),
                "scalars": {"lr": self.lr}, "arrays": {}}

    @staticmethod
    def _pack(name, moments):
        return {f"{name}/{i}": moment for i, moment in enumerate(moments)}


class RefSGD(RefOptimizer):
    def __init__(self, parameters, lr, momentum=0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            if self.momentum > 0:
                velocity *= self.momentum
                velocity += param.grad
                param.data -= self.lr * velocity
            else:
                param.data -= self.lr * param.grad

    def state_dict(self):
        state = super().state_dict()
        state["scalars"]["momentum"] = self.momentum
        state["arrays"] = self._pack("velocity", self._velocity)
        return state


class RefAdam(RefOptimizer):
    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        super().__init__(parameters, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self):
        self._t += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1 ** self._t
        bias2 = 1.0 - beta2 ** self._t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * param.data
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self):
        state = super().state_dict()
        state["scalars"].update({"beta1": self.betas[0],
                                 "beta2": self.betas[1], "eps": self.eps,
                                 "weight_decay": self.weight_decay,
                                 "t": self._t})
        state["arrays"] = {**self._pack("m", self._m),
                           **self._pack("v", self._v)}
        return state


class RefAdamW(RefAdam):
    def step(self):
        decay, self.weight_decay = self.weight_decay, 0.0
        try:
            if decay > 0:
                for param in self.parameters:
                    if param.grad is not None:
                        param.data -= self.lr * decay * param.data
            super().step()
        finally:
            self.weight_decay = decay


def ref_clip_grad_norm(parameters, max_norm):
    grads = [p.grad for p in parameters if p.grad is not None]
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for grad in grads:
            grad *= scale
    return norm


# ----------------------------------------------------------------------
# The buffer guard
# ----------------------------------------------------------------------
def _offset(view: np.ndarray, buffer: np.ndarray) -> int:
    start = view.__array_interface__["data"][0]
    return (start - buffer.__array_interface__["data"][0]) // buffer.itemsize


def assert_bound(optimizer) -> None:
    """Every ``param.data`` (and set ``param.grad``) views the optimizer's
    ``flat`` (``grad``) buffer at the parameter's offset."""
    offset = 0
    for param in optimizer.parameters:
        for array, buffer in ((param.data, optimizer.flat),
                              (param.grad, optimizer.grad)):
            if array is None:
                continue
            assert array.base is buffer
            assert array.flags.c_contiguous
            assert _offset(array, buffer) == offset
        assert param.grad_slot.base is optimizer.grad
        assert _offset(param.grad_slot, optimizer.grad) == offset
        offset += param.data.size
    assert offset == optimizer.flat.size == optimizer.grad.size


# ----------------------------------------------------------------------
# A model with a parameter that gets a gradient on odd steps only
# ----------------------------------------------------------------------
SHAPES = [(3, 4), (4,), (2, 3), (5,)]
ODD_ONLY = 2
MAX_NORM = 0.5
STEPS = 24

FACTORIES = {
    "sgd": (lambda p: SGD(p, lr=0.05),
            lambda p: RefSGD(p, lr=0.05)),
    "sgd-momentum": (lambda p: SGD(p, lr=0.05, momentum=0.9),
                     lambda p: RefSGD(p, lr=0.05, momentum=0.9)),
    "adam": (lambda p: Adam(p, lr=0.01),
             lambda p: RefAdam(p, lr=0.01)),
    "adam-decay": (lambda p: Adam(p, lr=0.01, weight_decay=0.05),
                   lambda p: RefAdam(p, lr=0.01, weight_decay=0.05)),
    "adamw": (lambda p: AdamW(p, lr=0.01, weight_decay=0.05),
              lambda p: RefAdamW(p, lr=0.01, weight_decay=0.05)),
}


def make_params(seed: int = 0) -> list[Parameter]:
    rng = np.random.default_rng(seed)
    return [Parameter(rng.normal(size=shape)) for shape in SHAPES]


def backward(params: list[Parameter], step: int) -> None:
    """One step's loss through autograd; parameter ``ODD_ONLY`` joins it
    on odd steps only."""
    w, b, u, c = params
    x = Tensor(np.random.default_rng([step]).normal(size=(6, 3)))
    hidden = (x @ w + b).tanh()
    loss = (hidden * hidden).sum() * 3.0 + (c * c).sum() * 2.0
    if step % 2:
        loss = loss + (u.tanh() * u).sum() * 4.0
    loss.backward()


def train(optimizer, clip, params, steps, first=0):
    """Run ``steps`` steps, yielding ``(step, clip norm)`` per update."""
    for step in range(first, first + steps):
        optimizer.zero_grad()
        backward(params, step)
        norm = clip(params, MAX_NORM)
        optimizer.step()
        yield step, norm


def assert_same_state(flat_state: dict, ref_state: dict) -> None:
    assert flat_state["kind"] == ref_state["kind"]
    assert flat_state["scalars"] == ref_state["scalars"]
    assert list(flat_state["arrays"]) == list(ref_state["arrays"])
    for key, ref_array in ref_state["arrays"].items():
        assert flat_state["arrays"][key].shape == ref_array.shape, key
        assert np.array_equal(flat_state["arrays"][key], ref_array), key


@pytest.mark.parametrize("kind", sorted(FACTORIES))
class TestAgainstReference:
    def test_bitwise_equal_over_steps(self, kind):
        make_flat, make_ref = FACTORIES[kind]
        flat_params, ref_params = make_params(), make_params()
        flat, ref = make_flat(flat_params), make_ref(ref_params)
        runs = zip(train(flat, clip_grad_norm, flat_params, STEPS),
                   train(ref, ref_clip_grad_norm, ref_params, STEPS))
        for (step, flat_norm), (_, ref_norm) in runs:
            assert ref_norm > MAX_NORM, "clipping must act on every step"
            assert flat_norm == ref_norm, step
            assert (flat_params[ODD_ONLY].grad is None) == (step % 2 == 0)
            for mine, theirs in zip(flat_params, ref_params):
                assert np.array_equal(mine.data, theirs.data), step
            assert_same_state(flat.state_dict(), ref.state_dict())
            assert_bound(flat)

    def test_reference_state_loads_and_continues(self, kind):
        make_flat, make_ref = FACTORIES[kind]
        ref_params = make_params()
        ref = make_ref(ref_params)
        for _ in train(ref, ref_clip_grad_norm, ref_params, 9):
            pass
        flat_params = [Parameter(p.data.copy()) for p in ref_params]
        flat = make_flat(flat_params)
        flat.load_state_dict(ref.state_dict())
        assert_bound(flat)
        runs = zip(train(flat, clip_grad_norm, flat_params, 12, first=9),
                   train(ref, ref_clip_grad_norm, ref_params, 12, first=9))
        for (step, flat_norm), (_, ref_norm) in runs:
            assert flat_norm == ref_norm, step
        for mine, theirs in zip(flat_params, ref_params):
            assert np.array_equal(mine.data, theirs.data)
        assert_same_state(flat.state_dict(), ref.state_dict())
        assert_bound(flat)


class TestBuffer:
    def test_skipped_parameter_and_moments_do_not_move(self):
        params = make_params()
        optimizer = Adam(params, lr=0.01)
        for _ in train(optimizer, clip_grad_norm, params, 3):
            pass
        before = params[ODD_ONLY].data.copy()
        state = {key: array.copy() for key, array
                 in optimizer.state_dict()["arrays"].items()}
        next(train(optimizer, clip_grad_norm, params, 1, first=4))  # even step
        assert np.array_equal(params[ODD_ONLY].data, before)
        after = optimizer.state_dict()["arrays"]
        for name in (f"m/{ODD_ONLY}", f"v/{ODD_ONLY}"):
            assert np.array_equal(after[name], state[name])
        assert not np.array_equal(after["m/0"], state["m/0"])

    def test_zero_grad_clears_grads_and_buffer(self):
        params = make_params()
        optimizer = SGD(params, lr=0.1)
        backward(params, 1)
        assert optimizer.grad.any()
        optimizer.zero_grad()
        assert all(p.grad is None for p in params)
        assert not optimizer.grad.any()

    def test_hand_set_gradient_is_adopted_into_its_slot(self):
        params = make_params()
        optimizer = SGD(params, lr=0.1)
        grad = np.ones(SHAPES[1])
        params[1].grad = grad
        optimizer.step()
        assert params[1].grad is params[1].grad_slot
        assert np.array_equal(params[1].grad, grad)
        assert_bound(optimizer)

    def test_rebinding_data_after_the_optimizer_stops_training(self):
        """The gradient still lands in the old slot, and the update goes
        to the old slice of ``flat``, which the parameter no longer reads."""
        params = make_params()
        optimizer = SGD(params, lr=0.1)
        rebound = params[0].data.copy()
        params[0].data = rebound
        backward(params, 1)
        assert params[0].grad is params[0].grad_slot
        old_slice = optimizer.flat[:rebound.size].copy()
        optimizer.step()
        assert np.array_equal(params[0].data, rebound)  # not updated
        assert not np.array_equal(optimizer.flat[:rebound.size], old_slice)

    def test_parameter_listed_twice_is_rejected(self):
        param = Parameter(np.zeros(3))
        with pytest.raises(ValueError, match="twice"):
            Adam([param, param])

    def test_non_float64_parameter_is_rejected(self):
        with pytest.raises(TypeError, match="float64"):
            SGD([Parameter(np.zeros(3), dtype=np.float32)], lr=0.1)
