"""Core reverse-mode autograd engine.

Every differentiable operation creates a new :class:`Tensor` that remembers
its parent tensors, in the order the operation lists them, and a closure that
knows how to push the output gradient back to them.  There is no recorded
tape: :meth:`Tensor.backward` orders the graph at call time by a depth-first
search from the output, which explores each node's parents last-listed first,
and runs the closures in reverse of that post-order.  The order also fixes
how gradients are summed: a tensor with several consumers receives their
contributions in the order its consumers' closures run, and float addition
is not associative, so an op that lists its parents in another order can
change the gradient bits.  Fused ops (``functional.linear``, ``layer_norm``
and the others) therefore list their parents in the order the composition
they replace would have reached them.

All data is stored as ``numpy.ndarray`` with a configurable float dtype
(default ``float64`` — the models in this reproduction are tiny, so we buy
numerical headroom instead of speed).  Gradients follow numpy broadcasting
semantics: whenever an op broadcasts, the backward pass sums the gradient over
the broadcast axes (:func:`_unbroadcast`).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64
_DEFAULT_DESCR = np.dtype(DEFAULT_DTYPE)


class _GradState(threading.local):
    """Per-thread autograd switches; every thread starts from these."""

    enabled = True
    inference = False


_grad_state = _GradState()


def is_grad_enabled() -> bool:
    """Return True when operations should record the autograd graph."""
    return _grad_state.enabled


def is_inference_mode() -> bool:
    """Return True inside :func:`inference_mode` on this thread."""
    return _grad_state.inference


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Op results inside it are bare tensors: no ``__init__`` checks, parents
    or backward closure.
    """
    previous = _grad_state.enabled
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


@contextlib.contextmanager
def inference_mode():
    """Per-call serving mode for the current thread.

    As :func:`no_grad`, no graph is recorded and op results are bare
    tensors; in addition, dropout is the identity whatever
    ``Module.training`` says, and ``BertEncoder.cls_embeddings`` runs its
    last layer for the ``[CLS]`` row only.  The switch is thread-local, so
    a serving forward never switches dropout on or off for a concurrent
    forward on the same modules (flipping ``Module.train``/``eval`` on
    shared modules would).
    """
    state = _grad_state
    previous = state.enabled, state.inference
    state.enabled, state.inference = False, True
    try:
        yield
    finally:
        state.enabled, state.inference = previous


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype or DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _matmul_grads(g: np.ndarray, a: np.ndarray,
                  b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``a @ b`` w.r.t. ``a`` and ``b`` for upstream ``g``."""
    if a.ndim == 1 and b.ndim == 1:
        # (k,) @ (k,) -> scalar
        return (g * b, g * a)
    if b.ndim == 1:
        # (..., m, k) @ (k,) -> (..., m)
        grad_a = np.expand_dims(g, -1) * b
        grad_b = np.tensordot(g, a, axes=(tuple(range(g.ndim)),
                                          tuple(range(g.ndim))))
        return (grad_a, grad_b)
    if a.ndim == 1:
        # (k,) @ (..., k, n) -> (..., n)
        grad_a = (g[..., None, :] @ np.swapaxes(b, -1, -2)).reshape(
            g.shape[:-1] + (a.shape[0],))
        grad_a = _unbroadcast(grad_a, a.shape)
        grad_b = np.expand_dims(a, -1) * np.expand_dims(g, -2)
        return (grad_a, _unbroadcast(grad_b, b.shape))
    grad_a = g @ np.swapaxes(b, -1, -2)
    grad_b = np.swapaxes(a, -1, -2) @ g
    return (_unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape))


class Tensor:
    """An ndarray node in a dynamic autograd graph.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  Copied only if conversion
        requires it.
    requires_grad:
        When True, gradients flowing into this tensor are accumulated in
        ``self.grad`` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, *, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_state.enabled
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name: str | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"],
                    backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = _bare_tensor(data)
        if _grad_state.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = self._fresh_grad(grad)
        else:
            self.grad += grad

    def _fresh_grad(self, grad: np.ndarray) -> np.ndarray:
        """Storage for the first gradient this tensor receives."""
        return grad.astype(self.data.dtype, copy=True)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad of shape {grad.shape} does not match the "
                             f"tensor's shape {self.data.shape}")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None or not node._parents:
                node._accumulate(node_grad)
                continue
            # Interior node: leaf accumulation happens inside op backwards via
            # the grads dict; keep grad on the node itself only if it is also
            # a user-visible leaf (requires_grad and no parents is the leaf
            # case handled above).
            node._push(node_grad, grads)

        # Any remaining buffered grads belong to leaves reached but not popped.
        for node in order:
            pending = grads.pop(id(node), None)
            if pending is not None:
                node._accumulate(pending)

    def _push(self, grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Run this node's backward closure, buffering parent grads."""
        contributions = self._backward(grad)
        for parent, contribution in zip(self._parents, contributions):
            if contribution is None or not parent.requires_grad:
                continue
            contribution = np.asarray(contribution)
            if contribution.shape != parent.data.shape:
                contribution = _unbroadcast(contribution, parent.data.shape)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                if parent._parents or parent._backward is not None:
                    grads[key] = contribution
                else:
                    parent._accumulate(contribution)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data
        return self._make_child(out_data, (self, other),
                                lambda g: (g, g))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self._make_child(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self._make_child(self.data - other.data, (self, other),
                                lambda g: (g, -g))

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data
        return self._make_child(a * b, (self, other),
                                lambda g: (g * b, g * a))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data
        return self._make_child(a / b, (self, other),
                                lambda g: (g / b, -g * a / (b * b)))

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self.data
        out = a ** exponent
        return self._make_child(out, (self,),
                                lambda g: (g * exponent * a ** (exponent - 1),))

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data
        return self._make_child(a @ b, (self, other),
                                lambda g: _matmul_grads(np.asarray(g), a, b))

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return self._make_child(out, (self,), lambda g: (g * out,))

    def log(self) -> "Tensor":
        a = self.data
        return self._make_child(np.log(a), (self,), lambda g: (g / a,))

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)
        return self._make_child(out, (self,), lambda g: (g * 0.5 / out,))

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        return self._make_child(out, (self,), lambda g: (g * (1.0 - out * out),))

    def sin(self) -> "Tensor":
        cos = np.cos(self.data)
        return self._make_child(np.sin(self.data), (self,),
                                lambda g: (g * cos,))

    def cos(self) -> "Tensor":
        sin = np.sin(self.data)
        return self._make_child(np.cos(self.data), (self,),
                                lambda g: (-g * sin,))

    def sigmoid(self) -> "Tensor":
        out = 1.0 / (1.0 + np.exp(-self.data))
        return self._make_child(out, (self,), lambda g: (g * out * (1.0 - out),))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return self._make_child(self.data * mask, (self,), lambda g: (g * mask,))

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        return self._make_child(np.abs(self.data), (self,), lambda g: (g * sign,))

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        out = np.clip(self.data, low, high)
        mask = np.ones_like(self.data)
        if low is not None:
            mask = mask * (self.data >= low)
        if high is not None:
            mask = mask * (self.data <= high)
        return self._make_child(out, (self,), lambda g: (g * mask,))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g: np.ndarray):
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % len(shape) for a in axes):
                    grad = np.expand_dims(grad, ax)
            return (np.broadcast_to(grad, shape),)

        return self._make_child(out, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= self.data.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g: np.ndarray):
            grad = np.asarray(g)
            out_b = out
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % len(shape) for a in axes):
                    grad = np.expand_dims(grad, ax)
                    out_b = np.expand_dims(out_b, ax)
            mask = (self.data == out_b)
            # Split gradient evenly between ties, matching numerical checks.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return (grad * mask / counts,)

        return self._make_child(out, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        return self._make_child(self.data.reshape(shape), (self,),
                                lambda g: (g.reshape(original),))

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        return self._make_child(self.data.transpose(axes), (self,),
                                lambda g: (g.transpose(inverse),))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return self._make_child(np.swapaxes(self.data, a, b), (self,),
                                lambda g: (np.swapaxes(g, a, b),))

    def expand_dims(self, axis: int) -> "Tensor":
        return self._make_child(np.expand_dims(self.data, axis), (self,),
                                lambda g: (np.squeeze(g, axis=axis),))

    def squeeze(self, axis: int) -> "Tensor":
        return self._make_child(np.squeeze(self.data, axis=axis), (self,),
                                lambda g: (np.expand_dims(g, axis),))

    def __getitem__(self, index) -> "Tensor":
        out = self.data[index]
        shape = self.data.shape

        def backward(g: np.ndarray):
            grad = np.zeros(shape, dtype=self.data.dtype)
            np.add.at(grad, index, g)
            return (grad,)

        return self._make_child(out, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Embedding-style row gather: ``out[i...] = self[indices[i...]]``.

        ``indices`` may be any integer array; the result has shape
        ``indices.shape + self.shape[1:]`` and the backward pass scatter-adds.
        """
        indices = np.asarray(indices)
        out = self.data[indices]
        shape = self.data.shape

        def backward(g: np.ndarray):
            grad = np.zeros(shape, dtype=self.data.dtype)
            np.add.at(grad, indices.reshape(-1),
                      np.asarray(g).reshape(-1, *shape[1:]))
            return (grad,)

        return self._make_child(out, (self,), backward)

    # ------------------------------------------------------------------
    # Comparison helpers (no gradient)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > _as_array(other)

    def __lt__(self, other):
        return self.data < _as_array(other)

    def __ge__(self, other):
        return self.data >= _as_array(other)

    def __le__(self, other):
        return self.data <= _as_array(other)


def _bare_tensor(data) -> Tensor:
    """An op result without parents, skipping :meth:`Tensor.__init__`.

    Holds the same float array ``Tensor(data)`` would.  Every op result
    starts as one; :meth:`Tensor._make_child` attaches the parents and the
    backward closure while graph recording is on (not under
    :func:`no_grad` or :func:`inference_mode`).
    """
    if type(data) is not np.ndarray or data.dtype is not _DEFAULT_DESCR:
        data = np.asarray(data, dtype=DEFAULT_DTYPE)
    out = object.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._backward = None
    out._parents = ()
    out.name = None
    return out


# ----------------------------------------------------------------------
# Constructors and combining ops
# ----------------------------------------------------------------------

def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Create a :class:`Tensor` from array-like data."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    """An all-zeros tensor of the given shape."""
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    """An all-ones tensor of the given shape."""
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def zeros_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    """An all-zeros tensor shaped like ``t``."""
    return Tensor(np.zeros_like(t.data), requires_grad=requires_grad)


def ones_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    """An all-ones tensor shaped like ``t``."""
    return Tensor(np.ones_like(t.data), requires_grad=requires_grad)


def randn(shape, rng: np.random.Generator | None = None,
          scale: float = 1.0, requires_grad: bool = False) -> Tensor:
    """Gaussian tensor; pass an explicit generator for reproducibility."""
    rng = rng or np.random.default_rng()
    return Tensor(rng.normal(0.0, scale, size=shape).astype(DEFAULT_DTYPE),
                  requires_grad=requires_grad)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray):
        return tuple(np.split(g, splits, axis=axis))

    anchor = tensors[0]
    return anchor._make_child(data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray):
        pieces = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    anchor = tensors[0]
    return anchor._make_child(data, tensors, backward)
