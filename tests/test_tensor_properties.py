"""Property-based tests: Tensor ops must agree with numpy on random inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.diagnostics.gradcheck import assert_gradcheck
from repro.tensor import Tensor

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def safe_arrays(max_dims=3, min_side=1, max_side=4):
    return arrays(dtype=np.float64,
                  shape=array_shapes(min_dims=1, max_dims=max_dims,
                                     min_side=min_side, max_side=max_side),
                  elements=finite)


@settings(max_examples=40, deadline=None)
@given(safe_arrays())
def test_add_matches_numpy(values):
    assert np.array_equal((Tensor(values) + Tensor(values)).data, values * 2)


@settings(max_examples=40, deadline=None)
@given(safe_arrays(), finite)
def test_scalar_ops_match_numpy(values, scalar):
    t = Tensor(values)
    assert np.allclose((t * scalar).data, values * scalar)
    assert np.allclose((t + scalar).data, values + scalar)
    assert np.allclose((t - scalar).data, values - scalar)


@settings(max_examples=40, deadline=None)
@given(safe_arrays())
def test_exp_log_inverse(values):
    t = Tensor(np.abs(values) + 0.5)
    assert np.allclose(t.log().exp().data, t.data, rtol=1e-10)


@settings(max_examples=40, deadline=None)
@given(safe_arrays())
def test_sum_matches_numpy(values):
    assert np.allclose(Tensor(values).sum().data, values.sum())
    assert np.allclose(Tensor(values).sum(axis=0).data, values.sum(axis=0))


@settings(max_examples=40, deadline=None)
@given(safe_arrays())
def test_mean_matches_numpy(values):
    assert np.allclose(Tensor(values).mean().data, values.mean())


@settings(max_examples=40, deadline=None)
@given(safe_arrays())
def test_max_matches_numpy(values):
    assert np.allclose(Tensor(values).max().data, values.max())


@settings(max_examples=40, deadline=None)
@given(safe_arrays(max_dims=2))
def test_transpose_involution(values):
    t = Tensor(values)
    assert np.array_equal(t.T.T.data if values.ndim == 2 else t.data,
                          values)


@settings(max_examples=40, deadline=None)
@given(safe_arrays())
def test_relu_non_negative_and_sparse_consistent(values):
    out = Tensor(values).relu().data
    assert (out >= 0).all()
    assert np.array_equal(out > 0, values > 0)


@settings(max_examples=40, deadline=None)
@given(safe_arrays())
def test_sigmoid_bounds_and_symmetry(values):
    t = Tensor(values)
    s = t.sigmoid().data
    assert ((s > 0) & (s < 1)).all()
    assert np.allclose(s + Tensor(-values).sigmoid().data, 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10_000))
def test_matmul_matches_numpy(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_composite_expression_gradient(seed):
    """Gradcheck a nontrivial random composite expression."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(0, 0.5, size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(0, 0.5, size=(4, 2)), requires_grad=True)

    def fn():
        h = (a @ b).tanh()
        return (h * h).sum() + a.sigmoid().mean()

    assert_gradcheck(fn, {"a": a, "b": b})


@settings(max_examples=25, deadline=None)
@given(safe_arrays(max_dims=2, min_side=2))
def test_grad_of_sum_is_ones(values):
    t = Tensor(values, requires_grad=True)
    t.sum().backward()
    assert np.array_equal(t.grad, np.ones_like(values))


@settings(max_examples=25, deadline=None)
@given(safe_arrays(max_dims=1, min_side=2, max_side=6),
       st.integers(min_value=0, max_value=5))
def test_getitem_gradient_is_indicator(values, index):
    index = index % len(values)
    t = Tensor(values, requires_grad=True)
    t[index].sum().backward()
    expected = np.zeros_like(values)
    expected[index] = 1.0
    assert np.array_equal(t.grad, expected)
