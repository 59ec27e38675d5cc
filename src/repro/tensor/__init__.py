"""Reverse-mode automatic differentiation on top of numpy.

This package is the compute substrate for the whole reproduction: the paper's
models were built on PyTorch, which is unavailable here, so ``repro.tensor``
provides the minimal-but-complete autograd engine that ``repro.nn`` layers,
the ANEnc numeric encoder, the BERT/ELECTRA pre-training stack, the GCN used
for root-cause analysis, and the KGE models are written against.

The public surface mirrors a small subset of ``torch``:

* :class:`Tensor` — an ndarray with a ``grad`` slot and a ``backward`` method.
* :func:`tensor` / :func:`zeros` / :func:`ones` / :func:`randn` — constructors.
* ``repro.tensor.functional`` — composite ops (softmax, layer_norm, gelu, ...).
* :func:`no_grad` — context manager disabling graph construction.
* :func:`inference_mode` — per-call, per-thread serving mode: no graph, bare
  result tensors, dropout off, ``[CLS]``-only last encoder layer.
"""

from repro.tensor.tensor import (
    Tensor,
    concat,
    inference_mode,
    is_grad_enabled,
    is_inference_mode,
    no_grad,
    ones,
    ones_like,
    randn,
    stack,
    tensor,
    zeros,
    zeros_like,
)
from repro.tensor import functional

__all__ = [
    "Tensor",
    "concat",
    "functional",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode",
    "no_grad",
    "ones",
    "ones_like",
    "randn",
    "stack",
    "tensor",
    "zeros",
    "zeros_like",
]
