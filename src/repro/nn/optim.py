"""Optimizers and learning-rate schedules.

An optimizer owns its parameters' memory: it copies them, in order, into
one float64 array, ``flat``, rebinds each ``param.data`` to a view of it,
and gives each parameter a gradient slot in a second array, ``grad``.
Updates run over whole runs of parameters, bit-identical to a
per-parameter loop.  *Skip rule:* a parameter whose ``grad`` is None is
not updated and its moments do not decay.  *Clip order:*
:func:`clip_grad_norm` adds per-parameter ``np.vdot`` values in parameter
order; one ``vdot`` over ``grad`` would round differently.  *Format:*
``state_dict()`` holds one ``<moment>/<i>`` array per parameter, shaped
like it.  A second optimizer over a parameter takes it over from the
first.  Rebind ``param.data`` only before the optimizer is built: after
it, backward still writes the gradient into the old slot and the update
goes to the old slice of ``flat``, which the parameter no longer reads,
so it stops training; a rebind that changes the shape breaks backward.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimizer: flat parameter and gradient buffers, mutable lr."""

    #: Names of the per-element state buffers, each laid out like ``flat``.
    moments: tuple[str, ...] = ()

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if len({id(p) for p in self.parameters}) != len(self.parameters):
            raise ValueError("a parameter appears twice in the optimizer")
        dtypes = {p.data.dtype for p in self.parameters}
        if dtypes != {np.dtype(np.float64)}:
            raise TypeError(f"optimizer parameters must be float64, "
                            f"got {sorted(map(str, dtypes))}")
        self.lr = float(lr)
        offsets = np.cumsum([0] + [p.data.size for p in self.parameters])
        #: ``(lo, hi, shape)`` of each parameter's slice of the buffers.
        self._layout = [(int(lo), int(hi), p.data.shape) for p, lo, hi
                        in zip(self.parameters, offsets[:-1], offsets[1:])]
        self.flat = np.empty(int(offsets[-1]))
        self.grad = np.zeros(int(offsets[-1]))
        self._moments = {name: np.zeros_like(self.flat)
                         for name in self.moments}
        for param, (lo, hi, shape) in zip(self.parameters, self._layout):
            self.flat[lo:hi] = param.data.ravel()
            param.data = self.flat[lo:hi].reshape(shape)
            param.grad_slot = self.grad[lo:hi].reshape(shape)

    def zero_grad(self) -> None:
        """Drop every gradient and zero the buffer (untouched slots read 0)."""
        for param in self.parameters:
            param.zero_grad()
        self.grad[...] = 0.0

    def _runs(self) -> list[tuple[int, int]]:
        """Buffer bounds ``[lo, hi)`` of the maximal runs of parameters
        with a gradient; a hand-set gradient is first copied into its slot.
        """
        runs: list[tuple[int, int]] = []
        for param, (lo, hi, _) in zip(self.parameters, self._layout):
            if param.grad is None:
                continue
            if param.grad is not param.grad_slot:
                param.grad_slot[...] = param.grad
                param.grad = param.grad_slot
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((lo, hi))
        return runs

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing: a state dict splits JSON-serialisable scalars from
    # per-parameter moment arrays so the training runtime can persist both
    # in one ``.npz`` snapshot and restore a bit-exact continuation.
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Scalars + per-parameter moment arrays for checkpointing."""
        return {"kind": type(self).__name__.lower(),
                "scalars": {"lr": self.lr},
                "arrays": {f"{name}/{i}": moment[lo:hi].reshape(shape)
                           for name, moment in self._moments.items()
                           for i, (lo, hi, shape)
                           in enumerate(self._layout)}}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; validates kind and shapes."""
        if state.get("kind") != type(self).__name__.lower():
            raise ValueError(
                f"optimizer state is for {state.get('kind')!r}, "
                f"not {type(self).__name__.lower()!r}")
        self.lr = float(state["scalars"]["lr"])
        loaded = {name: self._unpack(name, state["arrays"])
                  for name in self._moments}
        for name, values in loaded.items():
            self._moments[name][...] = values

    def _unpack(self, name: str, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """One moment's per-parameter arrays, validated, as a flat array."""
        parts = []
        for i, (_, _, shape) in enumerate(self._layout):
            try:
                part = np.asarray(arrays[f"{name}/{i}"])
            except KeyError as error:
                raise ValueError(
                    f"optimizer state lacks {error.args[0]!r}") from error
            if part.shape != shape:
                raise ValueError(
                    f"{name} shape {part.shape} does not match "
                    f"parameter shape {shape}")
            parts.append(part.ravel())
        return np.concatenate(parts)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    moments = ("velocity",)

    def __init__(self, parameters: Iterable[Parameter], lr: float,
                 momentum: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum

    def step(self) -> None:
        for lo, hi in self._runs():
            param, grad = self.flat[lo:hi], self.grad[lo:hi]
            if self.momentum > 0:
                velocity = self._moments["velocity"][lo:hi]
                velocity *= self.momentum
                velocity += grad
                param -= self.lr * velocity
            else:
                param -= self.lr * grad

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["scalars"]["momentum"] = self.momentum
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.momentum = float(state["scalars"]["momentum"])


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    moments = ("m", "v")

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = 0

    def _decay(self, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """L2 weight decay: folded into the gradient."""
        return grad + self.weight_decay * param

    def step(self) -> None:
        self._t += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1 ** self._t
        bias2 = 1.0 - beta2 ** self._t
        for lo, hi in self._runs():
            param, grad = self.flat[lo:hi], self.grad[lo:hi]
            m, v = self._moments["m"][lo:hi], self._moments["v"][lo:hi]
            if self.weight_decay > 0:
                grad = self._decay(param, grad)
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["scalars"].update({"beta1": self.betas[0],
                                 "beta2": self.betas[1],
                                 "eps": self.eps,
                                 "weight_decay": self.weight_decay,
                                 "t": self._t})
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        scalars = state["scalars"]
        self.betas = (float(scalars["beta1"]), float(scalars["beta2"]))
        self.eps = float(scalars["eps"])
        self.weight_decay = float(scalars["weight_decay"])
        self._t = int(scalars["t"])


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def _decay(self, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Decoupled decay: shrinks the weights, leaves the gradient."""
        param -= self.lr * self.weight_decay * param
        return grad


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Clip gradients in-place to a global L2 norm; returns the pre-clip norm."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    grads = [p.grad for p in parameters if p.grad is not None]
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for grad in grads:
            grad *= scale
    return norm


class LinearWarmupSchedule:
    """Linear warmup to ``peak_lr`` then linear decay to zero.

    Call :meth:`step` once per optimizer update; it mutates ``optimizer.lr``.
    """

    def __init__(self, optimizer: Optimizer, peak_lr: float,
                 warmup_steps: int, total_steps: int):
        if warmup_steps < 0 or total_steps <= 0:
            raise ValueError("warmup_steps must be >= 0 and total_steps > 0")
        self.optimizer = optimizer
        self.peak_lr = peak_lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self._step = 0

    def current_lr(self) -> float:
        if self.warmup_steps > 0 and self._step < self.warmup_steps:
            return self.peak_lr * self._step / self.warmup_steps
        remaining = max(self.total_steps - self._step, 0)
        span = max(self.total_steps - self.warmup_steps, 1)
        return self.peak_lr * remaining / span

    def step(self) -> float:
        self._step += 1
        lr = self.current_lr()
        self.optimizer.lr = lr
        return lr

    def state_dict(self) -> dict:
        """JSON-serialisable schedule cursor for checkpointing."""
        return {"peak_lr": self.peak_lr, "warmup_steps": self.warmup_steps,
                "total_steps": self.total_steps, "step": self._step}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (cursor and shape)."""
        self.peak_lr = float(state["peak_lr"])
        self.warmup_steps = int(state["warmup_steps"])
        self.total_steps = int(state["total_steps"])
        self._step = int(state["step"])
