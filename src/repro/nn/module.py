"""Module and parameter containers.

:class:`Parameter` is a :class:`~repro.tensor.Tensor` that always requires
gradients; :class:`Module` auto-registers parameters and sub-modules assigned
as attributes, and provides traversal (``parameters`` / ``named_parameters``),
train/eval mode switching, gradient zeroing, and a flat ``state_dict`` for
checkpointing.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor; created with ``requires_grad=True``.

    An optimizer makes ``data`` a view of its ``flat`` buffer and
    ``grad_slot`` a view of its ``grad`` buffer; backward writes the first
    gradient into the slot, so a set ``grad`` is the slot.
    """

    def __init__(self, data, *, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        # Parameters are leaves even when constructed inside no_grad blocks.
        self.requires_grad = True
        self.grad_slot: np.ndarray | None = None

    def _fresh_grad(self, grad: np.ndarray) -> np.ndarray:
        if self.grad_slot is None:
            return super()._fresh_grad(grad)
        self.grad_slot[...] = grad
        return self.grad_slot


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic.  ``training`` toggles behaviour of
    stochastic layers (dropout, dynamic masking) and is propagated by
    :meth:`train` / :meth:`eval`.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, parameter: Parameter) -> None:
        """Explicitly register a parameter (used for dynamic collections)."""
        self._parameters[name] = parameter
        object.__setattr__(self, name, parameter)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` for this module and children."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its children."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants depth-first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray],
                        strict: bool = True) -> None:
        """Load parameter values previously produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}")
        for name, values in state.items():
            if name not in own:
                continue
            if own[name].data.shape != values.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{own[name].data.shape} vs {values.shape}")
            own[name].data[...] = values

    # ------------------------------------------------------------------
    # Calling
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of sub-modules registered under their index."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
