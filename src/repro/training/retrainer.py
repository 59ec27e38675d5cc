"""Stage-2 re-training loop (Sec. IV-E).

Runs a :class:`~repro.training.mtl.MtlStrategy` over the stage-2 datasets:
each step activates the strategy's task set — masking reconstruction (which
carries `L_num` on numeric rows) and/or knowledge embedding — sums the active
losses, and updates all parameters.

The step is decomposed into ``advance`` (schedule cursor), ``draw_batches``
(consume the shuffled iterators; the batches come with their dataset
indices), ``compute_losses`` (forward), and ``finish_step`` (clip + optimizer
update + logging).  ``train_on`` is the serial step over drawn batches
(zero_grad, forward, backward, finish); the fault-tolerant runtime
(:mod:`repro.training.runtime`) runs it too, or hands the indices to worker
processes for the forward/backward half and feeds their averaged gradients
back through ``finish_step``.  ``state_dict`` / ``load_state_dict`` capture
everything the loop owns besides model weights and optimizer moments — RNG
stream, batch cursors, step counter, and loss history — for bit-exact
checkpoint/resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.ktelebert import KTeleBert
from repro.nn.optim import Adam, clip_grad_norm
from repro.tensor.tensor import Tensor
from repro.training.batching import BatchIterator
from repro.training.masking import DynamicMasker
from repro.training.mtl import MtlStrategy, TASK_KE, TASK_MASK
from repro.training.stage2 import Stage2Data


@dataclass
class RetrainingLog:
    """Per-step loss history of a stage-2 run."""

    total: list[float] = field(default_factory=list)
    mask: list[float] = field(default_factory=list)
    ke: list[float] = field(default_factory=list)
    numeric_regression: list[float] = field(default_factory=list)


@dataclass
class StepLosses:
    """One step's summed loss tensor plus its scalar decomposition.

    ``tokens`` counts the masked-stream tokens (incl. ``[CLS]``/``[SEP]``)
    that flowed through the encoder — the unit of the journal's
    tokens-per-second throughput figure.
    """

    total: Tensor
    mask: float = 0.0
    ke: float = 0.0
    numeric_regression: float = 0.0
    tokens: int = 0

    @property
    def value(self) -> float:
        return float(self.total.data)


def compute_stage2_losses(model: KTeleBert, masker: DynamicMasker,
                          rows: list | None,
                          triples: list | None) -> StepLosses:
    """Forward pass of one stage-2 step over explicit batches.

    Shared by the serial retrainer and the data-parallel workers (which call
    it on a shard of the batch with their own deterministic RNG stream).
    """
    total = None
    mask_value = 0.0
    ke_value = 0.0
    reg_value = 0.0
    tokens = 0
    if rows:
        prepared = model.prepare(rows)
        loss, numeric = model.masked_lm_loss(prepared, masker)
        total = loss
        mask_value = float(loss.data)
        tokens += prepared["token_count"]
        if numeric is not None:
            reg_value = numeric.regression
    if triples:
        ke = model.ke_loss(triples)
        total = ke if total is None else total + ke
        ke_value = float(ke.data)
    if total is None:
        raise RuntimeError("no batch produced a loss (empty task set?)")
    return StepLosses(total=total, mask=mask_value, ke=ke_value,
                      numeric_regression=reg_value, tokens=tokens)


class KTeleBertRetrainer:
    """Owns the optimizer, batching, and strategy schedule for stage 2.

    :meth:`train_step` runs one step on this process; the runtime drives
    the same pieces (:meth:`advance`, :meth:`draw_batches`,
    :meth:`train_on` or a worker pool plus :meth:`finish_step`), so the
    batch stream is one whichever path a step takes.
    """

    def __init__(self, model: KTeleBert, data: Stage2Data,
                 strategy: MtlStrategy, seed: int = 0,
                 learning_rate: float = 1e-3, batch_size: int = 8,
                 ke_batch_size: int = 4, grad_clip: float = 5.0):
        self.model = model
        self.data = data
        self.strategy = strategy
        self.seed = seed
        self.rng = np.random.default_rng(seed + 17)
        self.optimizer = Adam(model.parameters(), lr=learning_rate)
        self.grad_clip = grad_clip
        self.masker = DynamicMasker(model.tokenizer.vocab, self.rng,
                                    masking_rate=model.config.masking_rate)
        self.mask_batches = BatchIterator(data.mask_rows, batch_size, self.rng)
        self.ke_batches = (BatchIterator(data.triple_rows, ke_batch_size,
                                         self.rng)
                           if data.triple_rows else None)
        self.log = RetrainingLog()
        self._step = 0

    # ------------------------------------------------------------------
    # Step decomposition (used verbatim by the serial path and piecewise
    # by the data-parallel runtime).
    # ------------------------------------------------------------------
    @property
    def step_index(self) -> int:
        """Number of completed steps (the next step to run)."""
        return self._step

    def advance(self) -> frozenset:
        """Consume one schedule slot; returns its active task set."""
        if self._step >= self.strategy.total_steps:
            raise RuntimeError("strategy schedule exhausted")
        tasks = self.strategy.tasks_at(self._step)
        self._step += 1
        return tasks

    def draw_batches(
            self, tasks: frozenset) -> tuple[list | None, np.ndarray | None,
                                             list | None, np.ndarray | None]:
        """Pull the mini-batches the active tasks need from the iterators.

        Returns ``(rows, row_indices, triples, triple_indices)``: each
        batch (``None`` for an inactive task) with its dataset indices,
        which the data-parallel runtime ships to its workers.
        """
        rows = row_indices = triples = triple_indices = None
        if TASK_MASK in tasks:
            rows, row_indices = self.mask_batches.next_batch_with_indices()
        if TASK_KE in tasks and self.ke_batches is not None:
            triples, triple_indices = self.ke_batches.next_batch_with_indices()
        if rows is None and triples is None:
            raise RuntimeError(f"no active task at step {self._step - 1}")
        return rows, row_indices, triples, triple_indices

    def compute_losses(self, rows: list | None,
                       triples: list | None) -> StepLosses:
        """Forward pass over explicit batches (no parameter update)."""
        return compute_stage2_losses(self.model, self.masker, rows, triples)

    def finish_step(self, losses: StepLosses) -> float:
        """Clip gradients, apply the optimizer, and record the losses.

        Assumes gradients are already populated — either by
        ``losses.total.backward()`` on the serial path or by the worker
        pool folding averaged worker gradients into ``optimizer.grad``.
        """
        clip_grad_norm(self.optimizer.parameters, self.grad_clip)
        self.optimizer.step()
        value = losses.value
        self.log.total.append(value)
        self.log.mask.append(losses.mask)
        self.log.ke.append(losses.ke)
        self.log.numeric_regression.append(losses.numeric_regression)
        return value

    def train_on(self, rows: list | None,
                 triples: list | None) -> StepLosses:
        """The serial step over drawn batches: zero_grad, forward,
        backward, then :meth:`finish_step`."""
        self.optimizer.zero_grad()
        losses = self.compute_losses(rows, triples)
        losses.total.backward()
        self.finish_step(losses)
        return losses

    def train_step(self) -> float:
        """Run one step of the strategy schedule; returns its loss."""
        rows, _, triples, _ = self.draw_batches(self.advance())
        return self.train_on(rows, triples).value

    def train(self) -> RetrainingLog:
        """Run the full schedule."""
        self.model.train()
        while self._step < self.strategy.total_steps:
            self.train_step()
        return self.log

    # ------------------------------------------------------------------
    # Checkpointing (loop state only; model weights and optimizer moments
    # are captured separately by repro.models.checkpoint.save_train_state).
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serialisable loop state for bit-exact resume."""
        return {
            "step": self._step,
            "rng": self.rng.bit_generator.state,
            # The model's construction generator keeps being consumed by
            # dropout layers during training; without it a resumed run
            # would draw different dropout masks and diverge.
            "model_rng": self.model.rng.bit_generator.state,
            "mask_batches": self.mask_batches.state(),
            "ke_batches": (self.ke_batches.state()
                           if self.ke_batches is not None else None),
            "log": {
                "total": list(self.log.total),
                "mask": list(self.log.mask),
                "ke": list(self.log.ke),
                "numeric_regression": list(self.log.numeric_regression),
            },
            "strategy": {"name": self.strategy.name,
                         "total_steps": self.strategy.total_steps},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output over an identically built loop."""
        recorded = state["strategy"]
        if (recorded["name"] != self.strategy.name
                or recorded["total_steps"] != self.strategy.total_steps):
            raise ValueError(
                f"checkpoint was trained with strategy "
                f"{recorded['name']}/{recorded['total_steps']} but the loop "
                f"was built with "
                f"{self.strategy.name}/{self.strategy.total_steps}")
        if (state["ke_batches"] is None) != (self.ke_batches is None):
            raise ValueError("checkpoint and loop disagree on the KE stream")
        self._step = int(state["step"])
        self.rng.bit_generator.state = state["rng"]
        self.model.rng.bit_generator.state = state["model_rng"]
        self.mask_batches.load_state(state["mask_batches"])
        if self.ke_batches is not None:
            self.ke_batches.load_state(state["ke_batches"])
        log = state["log"]
        self.log = RetrainingLog(
            total=[float(v) for v in log["total"]],
            mask=[float(v) for v in log["mask"]],
            ke=[float(v) for v in log["ke"]],
            numeric_regression=[float(v) for v in log["numeric_regression"]])
