"""Gradient-correctness tests for the autograd primitives."""

import numpy as np
import pytest

from repro.tensor import Tensor, concat, no_grad, randn, stack, tensor
from repro.tensor.gradcheck import check_gradients

RNG = np.random.default_rng(7)


def _t(shape, scale=1.0):
    return Tensor(RNG.normal(0, scale, size=shape), requires_grad=True)


class TestElementwise:
    def test_add(self):
        check_gradients(lambda a, b: (a + b).sum(), [_t((3, 4)), _t((3, 4))])

    def test_add_broadcast(self):
        check_gradients(lambda a, b: (a + b).sum(), [_t((3, 4)), _t((4,))])

    def test_add_scalar_broadcast(self):
        check_gradients(lambda a, b: (a + b).sum(), [_t((3, 4)), _t(())])

    def test_sub(self):
        check_gradients(lambda a, b: (a - b).sum(), [_t((2, 5)), _t((2, 5))])

    def test_rsub(self):
        check_gradients(lambda a: (3.0 - a).sum(), [_t((4,))])

    def test_mul(self):
        check_gradients(lambda a, b: (a * b).sum(), [_t((3, 3)), _t((3, 3))])

    def test_mul_broadcast_column(self):
        check_gradients(lambda a, b: (a * b).sum(), [_t((3, 4)), _t((3, 1))])

    def test_div(self):
        b = Tensor(RNG.uniform(1.0, 2.0, size=(3, 4)), requires_grad=True)
        check_gradients(lambda a, b: (a / b).sum(), [_t((3, 4)), b])

    def test_neg(self):
        check_gradients(lambda a: (-a).sum(), [_t((5,))])

    def test_pow(self):
        a = Tensor(RNG.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        check_gradients(lambda a: (a ** 3).sum(), [a])

    def test_exp(self):
        check_gradients(lambda a: a.exp().sum(), [_t((3, 4), scale=0.5)])

    def test_log(self):
        a = Tensor(RNG.uniform(0.5, 3.0, size=(4,)), requires_grad=True)
        check_gradients(lambda a: a.log().sum(), [a])

    def test_sqrt(self):
        a = Tensor(RNG.uniform(0.5, 3.0, size=(4,)), requires_grad=True)
        check_gradients(lambda a: a.sqrt().sum(), [a])

    def test_tanh(self):
        check_gradients(lambda a: a.tanh().sum(), [_t((3, 4))])

    def test_sigmoid(self):
        check_gradients(lambda a: a.sigmoid().sum(), [_t((3, 4))])

    def test_relu(self):
        a = Tensor(RNG.uniform(0.1, 1.0, size=(3, 4)) *
                   RNG.choice([-1.0, 1.0], size=(3, 4)), requires_grad=True)
        check_gradients(lambda a: a.relu().sum(), [a])

    def test_abs(self):
        a = Tensor(RNG.uniform(0.2, 1.0, size=(6,)) *
                   RNG.choice([-1.0, 1.0], size=(6,)), requires_grad=True)
        check_gradients(lambda a: a.abs().sum(), [a])

    def test_clip(self):
        a = Tensor(np.linspace(-2.0, 2.0, 9), requires_grad=True)
        check_gradients(lambda a: a.clip(-1.01, 1.01).sum(), [a])


class TestMatmul:
    def test_2d_2d(self):
        check_gradients(lambda a, b: (a @ b).sum(), [_t((3, 4)), _t((4, 5))])

    def test_batched(self):
        check_gradients(lambda a, b: (a @ b).sum(), [_t((2, 3, 4)), _t((2, 4, 5))])

    def test_broadcast_batch(self):
        check_gradients(lambda a, b: (a @ b).sum(), [_t((2, 3, 4)), _t((4, 5))])

    def test_4d_attention_shape(self):
        check_gradients(lambda a, b: (a @ b).sum(),
                        [_t((2, 2, 3, 4)), _t((2, 2, 4, 3))])

    def test_matvec(self):
        check_gradients(lambda a, b: (a @ b).sum(), [_t((3, 4)), _t((4,))])

    def test_vecmat(self):
        check_gradients(lambda a, b: (a @ b).sum(), [_t((4,)), _t((4, 3))])

    def test_vecvec(self):
        check_gradients(lambda a, b: a @ b, [_t((4,)), _t((4,))])


class TestReductions:
    def test_sum_all(self):
        check_gradients(lambda a: a.sum(), [_t((3, 4))])

    def test_sum_axis(self):
        check_gradients(lambda a: a.sum(axis=0).sum(), [_t((3, 4))])

    def test_sum_axis_keepdims(self):
        check_gradients(lambda a: a.sum(axis=1, keepdims=True).sum(), [_t((3, 4))])

    def test_sum_negative_axis(self):
        check_gradients(lambda a: a.sum(axis=-1).sum(), [_t((2, 3, 4))])

    def test_mean(self):
        check_gradients(lambda a: a.mean(), [_t((3, 4))])

    def test_mean_axis(self):
        check_gradients(lambda a: a.mean(axis=-1, keepdims=True).sum(), [_t((2, 5))])

    def test_max_all(self):
        a = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        check_gradients(lambda a: a.max(), [a])

    def test_max_axis(self):
        a = Tensor(RNG.permutation(12).astype(float).reshape(3, 4),
                   requires_grad=True)
        check_gradients(lambda a: a.max(axis=1).sum(), [a])

    def test_min(self):
        a = Tensor(RNG.permutation(12).astype(float).reshape(3, 4),
                   requires_grad=True)
        check_gradients(lambda a: a.min(axis=0).sum(), [a])


class TestShapeOps:
    def test_reshape(self):
        check_gradients(lambda a: (a.reshape(6, 2) ** 2).sum(), [_t((3, 4))])

    def test_transpose_default(self):
        check_gradients(lambda a: (a.T ** 2).sum(), [_t((3, 4))])

    def test_transpose_axes(self):
        check_gradients(lambda a: (a.transpose(1, 0, 2) ** 2).sum(), [_t((2, 3, 4))])

    def test_swapaxes(self):
        check_gradients(lambda a: (a.swapaxes(0, 2) ** 2).sum(), [_t((2, 3, 4))])

    def test_getitem_slice(self):
        check_gradients(lambda a: (a[1:, :2] ** 2).sum(), [_t((3, 4))])

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        check_gradients(lambda a: (a[idx] ** 2).sum(), [_t((3, 4))])

    def test_take_rows_repeated_indices(self):
        idx = np.array([[0, 1], [1, 1]])
        check_gradients(lambda a: (a.take_rows(idx) ** 2).sum(), [_t((3, 4))])

    def test_expand_squeeze(self):
        check_gradients(lambda a: (a.expand_dims(1).squeeze(1) ** 2).sum(),
                        [_t((3, 4))])

    def test_concat(self):
        check_gradients(lambda a, b: (concat([a, b], axis=1) ** 2).sum(),
                        [_t((3, 2)), _t((3, 4))])

    def test_stack(self):
        check_gradients(lambda a, b: (stack([a, b], axis=0) ** 2).sum(),
                        [_t((3, 2)), _t((3, 2))])


class TestGraphSemantics:
    def test_grad_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        out = (a * 3.0) + (a * 4.0)
        out.backward(np.ones(1))
        assert np.allclose(a.grad, [7.0])

    def test_diamond_graph(self):
        a = Tensor([1.5], requires_grad=True)
        b = a * 2.0
        c = a * 3.0
        out = (b * c).sum()
        out.backward()
        # d/da (2a * 3a) = 12 a
        assert np.allclose(a.grad, [18.0])

    def test_deep_chain(self):
        a = Tensor([0.5], requires_grad=True)
        x = a
        for _ in range(50):
            x = x * 1.01
        x.sum().backward()
        assert np.allclose(a.grad, [1.01 ** 50], rtol=1e-10)

    def test_backward_requires_scalar(self):
        a = _t((3,))
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_rejects_a_gradient_of_another_shape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3,\)"):
            y.backward(np.ones((2, 3)))
        assert x.grad is None

    def test_backward_on_nongrad_tensor_raises(self):
        a = Tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_detach_cuts_graph(self):
        a = Tensor([2.0], requires_grad=True)
        out = (a.detach() * a).sum()
        out.backward()
        assert np.allclose(a.grad, [2.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_second_backward_accumulates(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        assert np.allclose(a.grad, [4.0])


class TestConstructors:
    def test_tensor_factory(self):
        t = tensor([1, 2, 3], requires_grad=True)
        assert t.shape == (3,)
        assert t.requires_grad

    def test_randn_reproducible(self):
        a = randn((4, 4), rng=np.random.default_rng(0))
        b = randn((4, 4), rng=np.random.default_rng(0))
        assert np.array_equal(a.data, b.data)

    def test_repr(self):
        assert "requires_grad" in repr(tensor([1.0], requires_grad=True))

    def test_item(self):
        assert tensor([3.5]).item() == 3.5


class TestTrig:
    def test_sin_gradient(self):
        check_gradients(lambda a: a.sin().sum(), [_t((3, 4))])

    def test_cos_gradient(self):
        check_gradients(lambda a: a.cos().sum(), [_t((3, 4))])

    def test_pythagorean_identity(self):
        a = _t((5,), scale=3.0)
        total = (a.sin() ** 2 + a.cos() ** 2).data
        assert np.allclose(total, 1.0)
