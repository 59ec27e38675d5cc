"""Checkpointing: persist and restore a complete KTeleBERT artifact.

A checkpoint directory holds:

* ``meta.json`` — model geometry, stage-2 config, tag names, normaliser
  ranges;
* ``vocab.json`` — the tokenizer vocabulary (with special-token flags);
* ``weights.npz`` — every parameter of the encoder, MLM head, ANEnc, NDec,
  TGC, and the automatic-loss-weighting μ, keyed by component and dotted
  parameter path.

This is what "service delivery" looks like operationally: the pre-training
team ships the directory; task teams load it read-only and call ``encode``.

Besides the shippable artifact, this module also persists *training state*
(:func:`save_train_state` / :func:`load_train_state`): a single-file
``.npz`` snapshot bundling model weights, optimizer moments, and the
training loop's JSON state (RNG stream, batch cursors, step counter, loss
history).  Snapshots are written atomically — serialised to a temporary
file in the target directory, fsynced, then renamed over the final path —
so a crash mid-write can never leave a truncated snapshot behind.  The
fault-tolerant runtime (:mod:`repro.training.runtime`) restores them into
a bit-exact continuation of the interrupted run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.ioutil import atomic_write_bytes, atomic_write_text
from repro.models.bert import BertConfig, BertForMaskedLM
from repro.models.ktelebert import KTeleBert, KTeleBertConfig
from repro.nn.optim import Optimizer
from repro.numeric.normalization import TagNormalizer
from repro.tokenization.tokenizer import WordTokenizer
from repro.tokenization.vocab import Vocab

_FORMAT_VERSION = 1
_TRAIN_STATE_VERSION = 1


def _component_states(model: KTeleBert) -> dict[str, dict[str, np.ndarray]]:
    return {name: part.state_dict()
            for name, part in model.components().items()}


def _load_components(model: KTeleBert,
                     states: dict[str, dict[str, np.ndarray]],
                     source: str) -> None:
    """Load every component of ``model``; a missing one is a ValueError."""
    for name, part in model.components().items():
        if name not in states:
            raise ValueError(f"{source} lacks {name!r} weights, which the "
                             f"model's config requires")
        part.load_state_dict(states[name])


def save_ktelebert(model: KTeleBert, path: str | Path) -> Path:
    """Write a checkpoint directory; returns its path."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    meta = {
        "format_version": _FORMAT_VERSION,
        "bert_config": dataclasses.asdict(model.bert_config),
        "ktelebert_config": dataclasses.asdict(model.config),
        "tag_names": model.tag_names,
        "normalizer": {
            "ranges": {tag: list(bounds)
                       for tag, bounds in model.normalizer.ranges.items()},
            "global_range": list(model.normalizer.global_range)
            if model.normalizer.global_range else None,
        },
        "tokenizer": {
            "max_length": model.tokenizer.max_length,
            "lowercase": model.tokenizer.lowercase,
        },
    }
    atomic_write_text(path / "meta.json",
                      json.dumps(meta, ensure_ascii=False))
    model.tokenizer.vocab.save(path / "vocab.json")

    flat: dict[str, np.ndarray] = {}
    for component, state in _component_states(model).items():
        for name, values in state.items():
            flat[f"{component}/{name}"] = values
    buffer = io.BytesIO()
    np.savez(buffer, **flat)
    atomic_write_bytes(path / "weights.npz", buffer.getvalue())
    return path


_CHECKPOINT_FILES = ("meta.json", "vocab.json", "weights.npz")


def checkpoint_fingerprint(path: str | Path) -> str:
    """Content hash of a checkpoint directory (16 hex chars).

    Streams ``meta.json``, ``vocab.json``, and ``weights.npz`` through
    SHA-256 so any change to geometry, vocabulary, or weights yields a new
    fingerprint.  The serving layer keys its persistent embedding store on
    this value: re-training invalidates stale vectors without any explicit
    cache-busting step.
    """
    path = Path(path)
    digest = hashlib.sha256()
    for name in _CHECKPOINT_FILES:
        file_path = path / name
        if not file_path.exists():
            raise FileNotFoundError(f"checkpoint is missing {name}: {path}")
        digest.update(name.encode())
        with open(file_path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()[:16]


def model_fingerprint(model: KTeleBert) -> str:
    """Content hash of an in-memory KTeleBERT (16 hex chars).

    Same role as :func:`checkpoint_fingerprint` for models that were never
    saved: hashes every parameter array plus the model geometry, so the
    embedding store distinguishes differently-trained instances of the
    same architecture.
    """
    digest = hashlib.sha256()
    digest.update(json.dumps(dataclasses.asdict(model.bert_config),
                             sort_keys=True).encode())
    digest.update(json.dumps(dataclasses.asdict(model.config),
                             sort_keys=True).encode())
    for component, state in sorted(_component_states(model).items()):
        for name, values in sorted(state.items()):
            digest.update(f"{component}/{name}".encode())
            digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()[:16]


def load_ktelebert(path: str | Path, seed: int = 0) -> KTeleBert:
    """Restore a KTeleBERT from :func:`save_ktelebert` output."""
    path = Path(path)
    meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format: "
                         f"{meta.get('format_version')!r}")

    vocab = Vocab.load(path / "vocab.json")
    tokenizer = WordTokenizer(vocab,
                              max_length=meta["tokenizer"]["max_length"],
                              lowercase=meta["tokenizer"]["lowercase"])
    bert_config = BertConfig(**meta["bert_config"])
    config = KTeleBertConfig(**meta["ktelebert_config"])
    normalizer = TagNormalizer(
        ranges={tag: tuple(bounds)
                for tag, bounds in meta["normalizer"]["ranges"].items()},
        global_range=tuple(meta["normalizer"]["global_range"])
        if meta["normalizer"]["global_range"] else None)

    rng = np.random.default_rng(seed)
    model = KTeleBert(tokenizer=tokenizer, bert_config=bert_config,
                      config=config, tag_names=meta["tag_names"],
                      normalizer=normalizer, rng=rng,
                      mlm_model=BertForMaskedLM(bert_config, rng))

    with np.load(path / "weights.npz") as archive:
        grouped: dict[str, dict[str, np.ndarray]] = {}
        for key in archive.files:
            component, _, name = key.partition("/")
            grouped.setdefault(component, {})[name] = archive[key]
    _load_components(model, grouped, "checkpoint")
    return model


# ----------------------------------------------------------------------
# Training-state snapshots (checkpoint/resume for the training runtime)
# ----------------------------------------------------------------------
@dataclass
class TrainState:
    """A full mid-run snapshot: weights + optimizer moments + loop state.

    ``trainer_state`` is the retrainer's JSON state (RNG stream, batch
    cursors, step counter, loss history, strategy identity).
    """

    step: int
    loss: float
    model_arrays: dict[str, dict[str, np.ndarray]]
    optimizer_scalars: dict
    optimizer_arrays: dict[str, np.ndarray]
    optimizer_kind: str
    trainer_state: dict

    def apply(self, model: KTeleBert, optimizer: Optimizer) -> None:
        """Restore this snapshot into an identically-built model/optimizer."""
        _load_components(model, self.model_arrays, "train state")
        optimizer.load_state_dict({"kind": self.optimizer_kind,
                                   "scalars": self.optimizer_scalars,
                                   "arrays": self.optimizer_arrays})


def save_train_state(path: str | Path, model: KTeleBert,
                     optimizer: Optimizer, trainer_state: dict, *,
                     step: int, loss: float) -> Path:
    """Atomically write a single-file ``.npz`` training snapshot."""
    optim_state = optimizer.state_dict()
    meta = {
        "format_version": _TRAIN_STATE_VERSION,
        "step": int(step),
        "loss": float(loss),
        "optimizer": {"kind": optim_state["kind"],
                      "scalars": optim_state["scalars"]},
        "trainer_state": trainer_state,
    }
    arrays: dict[str, np.ndarray] = {
        "__meta__": np.frombuffer(
            json.dumps(meta, ensure_ascii=False).encode(), dtype=np.uint8),
    }
    for component, state in _component_states(model).items():
        for name, values in state.items():
            arrays[f"model/{component}/{name}"] = values
    for name, values in optim_state["arrays"].items():
        arrays[f"optim/{name}"] = values

    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return atomic_write_bytes(path, buffer.getvalue())


def load_train_state(path: str | Path) -> TrainState:
    """Read a snapshot produced by :func:`save_train_state`.

    Other header keys are ignored, such as the ``extra`` dict that
    earlier versions wrote and nothing read.
    """
    with np.load(Path(path)) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode())
        if meta.get("format_version") != _TRAIN_STATE_VERSION:
            raise ValueError(f"unsupported train-state format: "
                             f"{meta.get('format_version')!r}")
        model_arrays: dict[str, dict[str, np.ndarray]] = {}
        optimizer_arrays: dict[str, np.ndarray] = {}
        for key in archive.files:
            if key.startswith("model/"):
                _, component, name = key.split("/", 2)
                model_arrays.setdefault(component, {})[name] = archive[key]
            elif key.startswith("optim/"):
                optimizer_arrays[key[len("optim/"):]] = archive[key]
    return TrainState(step=int(meta["step"]), loss=float(meta["loss"]),
                      model_arrays=model_arrays,
                      optimizer_scalars=meta["optimizer"]["scalars"],
                      optimizer_arrays=optimizer_arrays,
                      optimizer_kind=meta["optimizer"]["kind"],
                      trainer_state=meta["trainer_state"])
