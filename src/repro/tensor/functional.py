"""Composite differentiable operations built from :class:`~repro.tensor.Tensor` primitives.

Most are written as compositions of the primitive ops in
``repro.tensor.tensor`` so that their gradients come for free from the
autograd engine; only numerically delicate pieces (softmax, log-softmax) use
the usual max-subtraction stabilisation.  The encoder's hot ops (``linear``,
``gelu``, ``layer_norm``, ``dropout``, the head split and merge, and the
fused ops at the end) are single nodes with a hand-written backward, shared
by training and serving.  Each runs the same numpy operations, in the same
order, as the composition it replaces, so its values are bit-identical to
it, and lists its parents in the composition's order.  ``linear``,
``dropout`` and the head split and merge run the composition's backward
operations too, so their gradients are bit-identical as well.
"""

from __future__ import annotations

import math

import numpy as np

from repro.tensor.tensor import (  # noqa: F401 (re-export)
    Tensor,
    _matmul_grads,
    _unbroadcast,
    concat,
    is_inference_mode,
    stack,
)

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight + bias`` over the last axis, as one node.

    ``weight`` is ``(in, out)`` and ``bias`` ``(out,)`` or None.  The
    forward adds ``bias`` in place to the fresh matmul output; the backward
    runs the matmul's gradient (``g @ weight^T``, and ``x^T @ g`` summed
    over the leading axes) and sums ``g`` over the leading axes for
    ``bias``, the operations the ``x @ weight`` and ``+ bias`` nodes ran.
    """
    x_data, weight_data = x.data, weight.data
    out = x_data @ weight_data
    if bias is None:
        return x._make_child(
            out, (x, weight),
            lambda g: _matmul_grads(np.asarray(g), x_data, weight_data))
    out += bias.data
    bias_shape = bias.data.shape

    def backward(g):
        g = np.asarray(g)
        return _matmul_grads(g, x_data, weight_data) + (
            _unbroadcast(g, bias_shape),)

    return x._make_child(out, (x, weight, bias), backward)


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """``(B, T, D) -> (B, H, T, D / H)`` as one node (a view of ``x``)."""
    batch, seq, width = x.data.shape
    out = x.data.reshape(batch, seq, num_heads, width // num_heads)
    return x._make_child(
        out.transpose(0, 2, 1, 3), (x,),
        lambda g: (g.transpose(0, 2, 1, 3).reshape(batch, seq, width),))


def merge_heads(x: Tensor) -> Tensor:
    """``(B, H, T, Dh) -> (B, T, H * Dh)``, the inverse of :func:`split_heads`."""
    batch, heads, seq, head_dim = x.data.shape
    out = x.data.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)
    return x._make_child(
        out, (x,),
        lambda g: (g.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3),))


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit (delegates to the primitive op)."""
    return x.relu()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in BERT).

    ``0.5 x (1 + tanh(c (x + 0.044715 x^3)))`` as one autograd node.  The
    forward runs the same numpy operations, in the same order, as the
    former nine-node composition, so its values are bit-identical to it.
    """
    data = x.data
    inner = data * data
    inner *= data
    inner *= 0.044715
    inner += data
    inner *= _SQRT_2_OVER_PI
    tanh = np.tanh(inner)
    out = data * 0.5
    out *= tanh + 1.0

    def backward(g):
        slope = data * data
        slope *= 3.0 * 0.044715
        slope += 1.0
        slope *= _SQRT_2_OVER_PI * 0.5
        slope *= data
        slope *= 1.0 - tanh * tanh
        slope += 0.5 * (tanh + 1.0)
        return (np.asarray(g) * slope,)

    return x._make_child(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid (delegates to the primitive op)."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent (delegates to the primitive op)."""
    return x.tanh()


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis, as one autograd node.

    The forward runs the same numpy operations, in the same order, as the
    former composition (mean, centre, mean square, ``+ eps``, sqrt, divide,
    scale, shift), so its values are bit-identical to it.  The backward is
    the closed form ``dx = (dxh - mean(dxh) - xh * mean(dxh * xh)) / std``
    with ``xh`` the normalised input and ``dxh = g * weight``; it keeps
    only ``xh`` and ``std`` alive instead of every intermediate of the
    composition.  ``bias`` must broadcast to the output's shape.
    """
    data = x.data
    inv_n = 1.0 / data.shape[-1]
    normalised = data - data.sum(axis=-1, keepdims=True) * inv_n
    variance = (normalised * normalised).sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt(variance + eps)
    normalised /= std
    weight_data = weight.data
    out = normalised * weight_data
    out += bias.data

    def backward(g):
        g = np.asarray(g)
        grad_normalised = g * weight_data
        grad_x = grad_normalised - normalised * (
            (grad_normalised * normalised).sum(axis=-1, keepdims=True)
            * inv_n)
        grad_x -= grad_normalised.sum(axis=-1, keepdims=True) * inv_n
        grad_x /= std
        return (grad_x, g * normalised, g)

    return x._make_child(out, (x, weight, bias), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training, when ``rate`` is 0, or
    under :func:`~repro.tensor.inference_mode` (which draws nothing from
    ``rng``)."""
    if not training or rate <= 0.0 or is_inference_mode():
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x._make_child(x.data * mask, (x,), lambda g: (g * mask,))


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: int | None = None) -> Tensor:
    """Mean cross-entropy between ``logits`` (..., C) and integer ``targets``.

    Positions equal to ``ignore_index`` contribute nothing to the loss (useful
    for the MLM objective where only masked positions are predicted).
    """
    targets = np.asarray(targets)
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)

    if ignore_index is not None:
        keep = flat_targets != ignore_index
        if not keep.any():
            return Tensor(0.0)
        flat_logits = flat_logits[np.nonzero(keep)[0]]
        flat_targets = flat_targets[keep]

    log_probs = log_softmax(flat_logits, axis=-1)
    picked = log_probs[np.arange(flat_targets.shape[0]), flat_targets]
    return -picked.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray,
                                     weight: np.ndarray | None = None) -> Tensor:
    """Mean BCE on raw logits, computed via the stable log-sum-exp form.

    ``loss = max(z, 0) - z*y + log(1 + exp(-|z|))``
    """
    targets_t = Tensor(np.asarray(targets, dtype=logits.dtype))
    zeros = Tensor(np.zeros_like(logits.data))
    positive_part = stack([logits, zeros], axis=0).max(axis=0)
    log_term = ((-(logits.abs())).exp() + 1.0).log()
    loss = positive_part - logits * targets_t + log_term
    if weight is not None:
        loss = loss * Tensor(np.asarray(weight, dtype=logits.dtype))
    return loss.mean()


def mse_loss(prediction: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target_t
    return (diff * diff).mean()


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1,
                      eps: float = 1e-8) -> Tensor:
    """Cosine similarity along ``axis``; broadcasting follows numpy rules."""
    dot = (a * b).sum(axis=axis)
    norm_a = ((a * a).sum(axis=axis) + eps).sqrt()
    norm_b = ((b * b).sum(axis=axis) + eps).sqrt()
    return dot / (norm_a * norm_b)


def l2_norm(x: Tensor, axis: int = -1, eps: float = 0.0) -> Tensor:
    """Euclidean norm along ``axis``."""
    return ((x * x).sum(axis=axis) + eps).sqrt()


def masked_mean(x: Tensor, mask: np.ndarray, axis: int = 1) -> Tensor:
    """Mean of ``x`` over ``axis`` counting only positions where ``mask`` is 1.

    ``x`` is (B, T, D) and ``mask`` (B, T) in the usual sequence-pooling case.
    """
    mask = np.asarray(mask, dtype=x.dtype)
    expanded = Tensor(mask[..., None])
    total = (x * expanded).sum(axis=axis)
    counts = Tensor(np.maximum(mask.sum(axis=axis, keepdims=True), 1.0))
    return total / counts


def attention_scores_mask(mask: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Convert a (B, T) validity mask into an additive (B, 1, 1, T) bias."""
    mask = np.asarray(mask)
    bias = np.where(mask > 0, 0.0, -1e9).astype(dtype)
    return bias[:, None, None, :]


# ----------------------------------------------------------------------
# Fused hot-path ops.  Unlike the compositions above, these hand-code the
# backward pass to collapse several graph nodes (and their captured
# intermediates) into one — worthwhile only where profiles show the
# per-node Python overhead dominating: the encoder's embedding gather and
# the attention-weight softmax.
# ----------------------------------------------------------------------
def fused_embedding(token_weight: Tensor, position_weight: Tensor,
                    ids: np.ndarray,
                    overrides: tuple[np.ndarray, Tensor] | None = None
                    ) -> Tensor:
    """Token + position embedding gather (plus override scatter) as one op.

    Computes ``token_weight[ids] + position_weight[:seq]`` with the rows at
    ``overrides = (positions, vectors)`` replaced by
    ``vectors + position_weight[col]`` — exactly the encoder's five-node
    gather / keep-mask / scatter / position-add composition, as a single
    autograd node: forward is one fancy-index gather plus a broadcast add,
    backward two ``np.add.at`` scatters.  ``positions`` is (M, 2) of
    (row, col) pairs, assumed distinct (one per numeral occurrence).
    """
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ValueError(f"ids must be (batch, seq), got shape {ids.shape}")
    seq = ids.shape[1]
    n_tokens = token_weight.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_tokens):
        raise IndexError(f"embedding index out of range [0, {n_tokens})")
    if seq > position_weight.data.shape[0]:
        raise ValueError(
            f"sequence length {seq} exceeds the position table "
            f"({position_weight.data.shape[0]} rows)")
    token_data = token_weight.data
    position_data = position_weight.data
    out = token_data[ids]            # (B, T, D) — becomes the node's output
    out += position_data[:seq]       # broadcast over the batch axis
    parents: list[Tensor] = [token_weight, position_weight]
    positions = None
    if overrides is not None and len(overrides[0]) > 0:
        positions, vectors = overrides
        positions = np.asarray(positions)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be (M, 2) of (row, col)")
        out[positions[:, 0], positions[:, 1]] = (
            vectors.data + position_data[positions[:, 1]])
        parents.append(vectors)

    def backward(g):
        g = np.asarray(g)
        grad_token = np.zeros_like(token_data)
        np.add.at(grad_token, ids, g)
        grad_position = np.zeros_like(position_data)
        grad_position[:seq] = g.sum(axis=0)
        grads = [grad_token, grad_position]
        if positions is not None:
            rows, cols = positions[:, 0], positions[:, 1]
            picked = g[rows, cols]
            # Overridden slots never read the token table; take their
            # scatter contribution back out.
            np.subtract.at(grad_token, ids[rows, cols], picked)
            grads.append(picked)
        return tuple(grads)

    return token_weight._make_child(out, tuple(parents), backward)


def _lease_workspace(workspace: dict | None, shape: tuple[int, ...],
                     dtype) -> np.ndarray:
    """Borrow a scratch array from ``workspace`` (allocate on miss)."""
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    stack = workspace.get((shape, np.dtype(dtype).str))
    if stack:
        try:
            return stack.pop()  # list.pop is atomic under the GIL
        except IndexError:      # concurrent forwards drained it
            pass
    return np.empty(shape, dtype=dtype)


def _release_workspace(workspace: dict | None, buffer: np.ndarray) -> None:
    """Return a leased scratch array; keeps at most a few per shape."""
    if workspace is None:
        return
    stack = workspace.setdefault((buffer.shape, buffer.dtype.str), [])
    if len(stack) < 4:
        stack.append(buffer)


def attention_weights(q: Tensor, k: Tensor, scale: float,
                      mask_bias: np.ndarray | None = None,
                      workspace: dict | None = None) -> Tensor:
    """``softmax(scale * q @ k^T + mask_bias)`` as a single autograd node.

    Replaces the seven-node composition (matmul, scale, bias add, and the
    four softmax sub-ops) that captured several ``(B, H, T, T)``
    intermediates in the graph.  The scores buffer is leased from
    ``workspace`` (a per-module dict) and returned before this function
    exits — safe even across concurrent or re-entrant forwards, because the
    backward needs only the output distribution and ``q``/``k``:

    ``dS = W * (g - (g * W).sum(-1))``, ``dq = scale * dS @ k``,
    ``dk = scale * dS^T @ q``.

    Values are bit-identical to the composition (same numpy op sequence,
    including the max-subtraction stabilisation).
    """
    q_data, k_data = q.data, k.data
    shape = q_data.shape[:-1] + (k_data.shape[-2],)
    scores = _lease_workspace(workspace, shape, q_data.dtype)
    np.matmul(q_data, np.swapaxes(k_data, -1, -2), out=scores)
    if scale != 1.0:
        scores *= scale
    if mask_bias is not None:
        scores += mask_bias
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    weights = scores / scores.sum(axis=-1, keepdims=True)  # fresh output
    _release_workspace(workspace, scores)

    def backward(g):
        g = np.asarray(g)
        grad_scores = g * weights
        grad_scores -= weights * grad_scores.sum(axis=-1, keepdims=True)
        if scale != 1.0:
            grad_scores *= scale
        grad_q = grad_scores @ k_data
        grad_k = np.swapaxes(grad_scores, -1, -2) @ q_data
        return (grad_q, grad_k)

    return q._make_child(weights, (q, k), backward)
