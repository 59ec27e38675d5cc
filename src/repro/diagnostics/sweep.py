"""Gradient-check sweep over every differentiable component of the library.

Each :class:`SweepCase` builds one layer/loss at a deliberately tiny shape
(float64, fixed seeds) and hands the harness a scalar closure plus the named
tensors to verify — module parameters *and* differentiable inputs.  The
sweep covers ``repro.nn`` (layers, attention, transformer, losses),
``repro.tensor.functional``, ``repro.numeric`` (ANEnc, NDec, TGC),
``repro.kge`` (TransE/GTransE and the model-zoo scorers), and the task heads
(RCA GCN/GAT, EAP, FCT), mirroring what ``torch.autograd.gradcheck`` does
for custom ops.

Dropout is swept in eval mode and in training mode; the training case
re-seeds the layer's generator inside the closure, so every evaluation
draws the same mask and the closure is deterministic.  Inputs are drawn
from seeded generators, away from the measure-zero kinks of
``relu``/``abs``/``max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.diagnostics.gradcheck import (
    GradCheckReport,
    ScalarFn,
    gradcheck,
    module_targets,
)
from repro.tensor.tensor import Tensor

CaseBuilder = Callable[[], tuple[ScalarFn, Mapping[str, Tensor]]]


@dataclass(frozen=True)
class SweepCase:
    """A named gradcheck case with a lazily-invoked builder."""

    name: str
    build: CaseBuilder


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def _t(rng: np.random.Generator, *shape: int, scale: float = 1.0,
       requires_grad: bool = True) -> Tensor:
    return Tensor(rng.normal(0.0, scale, size=shape),
                  requires_grad=requires_grad)


def _const(rng: np.random.Generator, *shape: int) -> Tensor:
    """A fixed projection tensor used to reduce outputs to a scalar."""
    return Tensor(rng.normal(0.0, 1.0, size=shape))


# ----------------------------------------------------------------------
# repro.tensor.functional
# ----------------------------------------------------------------------

def _functional_cases() -> list[SweepCase]:
    from repro.tensor import functional as F

    def unary(fn, seed, *shape):
        def build():
            rng = _rng(seed)
            x = _t(rng, *shape)
            w = _const(rng, *shape)
            return (lambda: (fn(x) * w).sum()), {"x": x}
        return build

    def softmax_case():
        rng = _rng(1)
        x = _t(rng, 2, 3, 4)
        w = _const(rng, 2, 3, 4)
        return (lambda: (F.softmax(x, axis=-1) * w).sum()), {"x": x}

    def log_softmax_case():
        rng = _rng(2)
        x = _t(rng, 3, 5)
        w = _const(rng, 3, 5)
        return (lambda: (F.log_softmax(x, axis=-1) * w).sum()), {"x": x}

    def layer_norm_case():
        rng = _rng(3)
        x = _t(rng, 2, 4, 6)
        weight = _t(rng, 6, scale=0.5)
        bias = _t(rng, 6, scale=0.5)
        w = _const(rng, 2, 4, 6)
        return (lambda: (F.layer_norm(x, weight, bias) * w).sum()), \
            {"x": x, "weight": weight, "bias": bias}

    def cross_entropy_case():
        rng = _rng(4)
        x = _t(rng, 2, 3, 5)
        targets = rng.integers(0, 5, size=(2, 3))
        targets[0, 1] = -100
        return (lambda: F.cross_entropy(x, targets, ignore_index=-100)), \
            {"logits": x}

    def bce_case():
        rng = _rng(5)
        x = _t(rng, 3, 4)
        targets = rng.integers(0, 2, size=(3, 4)).astype(float)
        weight = rng.uniform(0.5, 2.0, size=(3, 4))
        return (lambda: F.binary_cross_entropy_with_logits(
            x, targets, weight=weight)), {"logits": x}

    def mse_case():
        rng = _rng(6)
        x = _t(rng, 4, 3)
        target = rng.normal(size=(4, 3))
        return (lambda: F.mse_loss(x, target)), {"prediction": x}

    def cosine_case():
        rng = _rng(7)
        a = _t(rng, 3, 1, 4)
        b = _t(rng, 2, 4)
        w = _const(rng, 3, 2)
        return (lambda: (F.cosine_similarity(a, b) * w).sum()), \
            {"a": a, "b": b}

    def l2_norm_case():
        rng = _rng(8)
        x = _t(rng, 3, 5)
        w = _const(rng, 3)
        return (lambda: (F.l2_norm(x, axis=-1) * w).sum()), {"x": x}

    def masked_mean_case():
        rng = _rng(9)
        x = _t(rng, 3, 4, 5)
        mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]],
                        dtype=float)
        w = _const(rng, 3, 5)
        return (lambda: (F.masked_mean(x, mask) * w).sum()), {"x": x}

    def fused_embedding_case():
        rng = _rng(14)
        token = _t(rng, 7, 5)
        position = _t(rng, 4, 5)
        ids = rng.integers(0, 7, size=(2, 3))
        positions = np.array([[0, 1], [1, 2]])
        vectors = _t(rng, 2, 5)
        w = _const(rng, 2, 3, 5)
        return (lambda: (F.fused_embedding(
            token, position, ids, overrides=(positions, vectors)) * w
        ).sum()), {"token": token, "position": position, "vectors": vectors}

    def attention_weights_case():
        rng = _rng(15)
        q = _t(rng, 2, 2, 3, 4)
        k = _t(rng, 2, 2, 3, 4)
        mask = np.array([[1, 1, 0], [1, 1, 1]], dtype=float)
        bias = F.attention_scores_mask(mask)
        w = _const(rng, 2, 2, 3, 3)
        workspace: dict = {}
        return (lambda: (F.attention_weights(
            q, k, 0.5, mask_bias=bias, workspace=workspace) * w).sum()), \
            {"q": q, "k": k}

    def linear_case(with_bias, seed):
        def build():
            rng = _rng(seed)
            x = _t(rng, 2, 3, 4)
            weight = _t(rng, 4, 5)
            targets = {"x": x, "weight": weight}
            bias = None
            if with_bias:
                bias = targets["bias"] = _t(rng, 5)
            w = _const(rng, 2, 3, 5)
            return (lambda: (F.linear(x, weight, bias) * w).sum()), targets
        return build

    def split_heads_case():
        rng = _rng(18)
        x = _t(rng, 2, 3, 4)
        w = _const(rng, 2, 2, 3, 2)
        return (lambda: (F.split_heads(x, 2) * w).sum()), {"x": x}

    def merge_heads_case():
        rng = _rng(19)
        x = _t(rng, 2, 2, 3, 2)
        w = _const(rng, 2, 3, 4)
        return (lambda: (F.merge_heads(x) * w).sum()), {"x": x}

    return [
        SweepCase("functional.softmax", softmax_case),
        SweepCase("functional.log_softmax", log_softmax_case),
        SweepCase("functional.relu", unary(F.relu, 10, 3, 4)),
        SweepCase("functional.gelu", unary(F.gelu, 11, 3, 4)),
        SweepCase("functional.sigmoid", unary(F.sigmoid, 12, 3, 4)),
        SweepCase("functional.tanh", unary(F.tanh, 13, 3, 4)),
        SweepCase("functional.layer_norm", layer_norm_case),
        SweepCase("functional.cross_entropy", cross_entropy_case),
        SweepCase("functional.binary_cross_entropy_with_logits", bce_case),
        SweepCase("functional.mse_loss", mse_case),
        SweepCase("functional.cosine_similarity", cosine_case),
        SweepCase("functional.l2_norm", l2_norm_case),
        SweepCase("functional.masked_mean", masked_mean_case),
        SweepCase("functional.fused_embedding", fused_embedding_case),
        SweepCase("functional.attention_weights", attention_weights_case),
        SweepCase("functional.linear", linear_case(True, 16)),
        SweepCase("functional.linear(bias=None)", linear_case(False, 17)),
        SweepCase("functional.split_heads", split_heads_case),
        SweepCase("functional.merge_heads", merge_heads_case),
    ]


# ----------------------------------------------------------------------
# repro.nn layers and blocks
# ----------------------------------------------------------------------

def _nn_layer_cases() -> list[SweepCase]:
    from repro import nn

    def linear_case():
        rng = _rng(20)
        layer = nn.Linear(5, 3, rng)
        x = _t(rng, 2, 5)
        w = _const(rng, 2, 3)
        return (lambda: (layer(x) * w).sum()), \
            module_targets(layer, {"x": x})

    def linear_nobias_case():
        rng = _rng(21)
        layer = nn.Linear(4, 4, rng, bias=False)
        x = _t(rng, 3, 4)
        w = _const(rng, 3, 4)
        return (lambda: (layer(x) * w).sum()), \
            module_targets(layer, {"x": x})

    def embedding_case():
        rng = _rng(22)
        layer = nn.Embedding(6, 4, rng)
        indices = np.array([[0, 2, 2], [5, 1, 0]])
        w = _const(rng, 2, 3, 4)
        return (lambda: (layer(indices) * w).sum()), module_targets(layer)

    def layernorm_module_case():
        rng = _rng(23)
        layer = nn.LayerNorm(5)
        x = _t(rng, 2, 3, 5)
        w = _const(rng, 2, 3, 5)
        return (lambda: (layer(x) * w).sum()), \
            module_targets(layer, {"x": x})

    def dropout_eval_case():
        rng = _rng(24)
        layer = nn.Dropout(0.5, rng)
        layer.eval()
        x = _t(rng, 3, 4)
        w = _const(rng, 3, 4)
        return (lambda: (layer(x) * w).sum()), {"input:x": x}

    def dropout_train_case():
        rng = _rng(29)
        layer = nn.Dropout(0.5, rng)
        state = rng.bit_generator.state
        x = _t(rng, 3, 4)
        w = _const(rng, 3, 4)

        def fn():
            rng.bit_generator.state = state
            return (layer(x) * w).sum()
        return fn, {"input:x": x}

    def sequential_case():
        rng = _rng(25)
        stack = nn.Sequential(nn.Linear(4, 6, rng), nn.GELU(),
                              nn.Linear(6, 4, rng), nn.Tanh(),
                              nn.Linear(4, 2, rng), nn.ReLU())
        x = _t(rng, 3, 4)
        w = _const(rng, 3, 2)
        return (lambda: (stack(x) * w).sum()), \
            module_targets(stack, {"x": x})

    def attention_case():
        rng = _rng(26)
        attn = nn.MultiHeadSelfAttention(8, 2, rng)
        attn.eval()
        x = _t(rng, 2, 4, 8)
        mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]])
        w = _const(rng, 2, 4, 8)
        return (lambda: (attn(x, attention_mask=mask) * w).sum()), \
            module_targets(attn, {"x": x})

    def encoder_layer_case():
        rng = _rng(27)
        layer = nn.TransformerEncoderLayer(8, 2, 16, rng)
        layer.eval()
        x = _t(rng, 2, 3, 8)
        mask = np.array([[1, 1, 0], [1, 1, 1]])
        w = _const(rng, 2, 3, 8)
        return (lambda: (layer(x, attention_mask=mask) * w).sum()), \
            module_targets(layer, {"x": x})

    def encoder_stack_case():
        rng = _rng(28)
        encoder = nn.TransformerEncoder(2, 8, 2, 16, rng)
        encoder.eval()
        x = _t(rng, 2, 3, 8)
        mask = np.array([[1, 1, 1], [1, 0, 0]])
        w = _const(rng, 2, 3, 8)
        return (lambda: (encoder(x, attention_mask=mask) * w).sum()), \
            module_targets(encoder, {"x": x})

    return [
        SweepCase("nn.Linear", linear_case),
        SweepCase("nn.Linear(bias=False)", linear_nobias_case),
        SweepCase("nn.Embedding", embedding_case),
        SweepCase("nn.LayerNorm", layernorm_module_case),
        SweepCase("nn.Dropout(eval)", dropout_eval_case),
        SweepCase("nn.Dropout(train)", dropout_train_case),
        SweepCase("nn.Sequential+activations", sequential_case),
        SweepCase("nn.MultiHeadSelfAttention", attention_case),
        SweepCase("nn.TransformerEncoderLayer", encoder_layer_case),
        SweepCase("nn.TransformerEncoder", encoder_stack_case),
    ]


# ----------------------------------------------------------------------
# repro.nn losses
# ----------------------------------------------------------------------

def _nn_loss_cases() -> list[SweepCase]:
    from repro.nn import losses

    def margin_case():
        rng = _rng(30)
        pos = _t(rng, 5)
        neg = _t(rng, 5)
        return (lambda: losses.margin_ranking_loss(pos, neg, margin=0.7)), \
            {"positive": pos, "negative": neg}

    def info_nce_case():
        rng = _rng(31)
        anchors = _t(rng, 4, 6)
        positives = _t(rng, 4, 6)
        return (lambda: losses.info_nce(anchors, positives,
                                        temperature=0.5)), \
            {"anchors": anchors, "positives": positives}

    def numeric_contrastive_case():
        rng = _rng(32)
        embeddings = _t(rng, 4, 6)
        values = rng.normal(size=4)
        return (lambda: losses.numeric_contrastive_loss(
            embeddings, values, temperature=0.5)), {"embeddings": embeddings}

    def awl_case():
        rng = _rng(33)
        awl = losses.AutomaticWeightedLoss(3)
        x = _t(rng, 4)
        return (lambda: awl([(x * x).mean(), x.sigmoid().mean(),
                             (x.tanh() * x).sum()])), \
            module_targets(awl, {"x": x})

    def orthogonal_case():
        rng = _rng(34)
        a = _t(rng, 3, 3, scale=0.3)
        b = _t(rng, 3, 3, scale=0.3)
        return (lambda: losses.orthogonal_regularizer([a, b])), \
            {"a": a, "b": b}

    return [
        SweepCase("losses.margin_ranking_loss", margin_case),
        SweepCase("losses.info_nce", info_nce_case),
        SweepCase("losses.numeric_contrastive_loss", numeric_contrastive_case),
        SweepCase("losses.AutomaticWeightedLoss", awl_case),
        SweepCase("losses.orthogonal_regularizer", orthogonal_case),
    ]


# ----------------------------------------------------------------------
# repro.numeric: ANEnc, NDec, TGC
# ----------------------------------------------------------------------

def _numeric_cases() -> list[SweepCase]:
    from repro.numeric.anenc import AdaptiveNumericEncoder, ANEncLayer
    from repro.numeric.heads import NumericDecoder, TagClassifier

    def anenc_layer_case():
        rng = _rng(40)
        layer = ANEncLayer(6, 2, 2, rng)
        x = _t(rng, 3, 6)
        tag = _t(rng, 3, 6)
        w = _const(rng, 3, 6)
        return (lambda: (layer(x, tag) * w).sum()), \
            module_targets(layer, {"x": x, "tag": tag})

    def anenc_case():
        rng = _rng(41)
        enc = AdaptiveNumericEncoder(6, num_layers=2, num_meta=2,
                                     lora_rank=2, rng=rng)
        values = rng.normal(size=3)
        tag = _t(rng, 3, 6)
        w = _const(rng, 3, 6)
        return (lambda: (enc(values, tag) * w).sum()), \
            module_targets(enc, {"tag": tag})

    def ndec_case():
        rng = _rng(42)
        ndec = NumericDecoder(6, rng, hidden=5)
        hidden_state = _t(rng, 4, 6)
        w = _const(rng, 4)
        return (lambda: (ndec(hidden_state) * w).sum()), \
            module_targets(ndec, {"hidden": hidden_state})

    def tgc_case():
        rng = _rng(43)
        tgc = TagClassifier(6, 4, rng)
        embedding = _t(rng, 3, 6)
        tag_ids = np.array([0, 3, 1])
        return (lambda: tgc.loss(embedding, tag_ids)), \
            module_targets(tgc, {"embedding": embedding})

    return [
        SweepCase("numeric.ANEncLayer", anenc_layer_case),
        SweepCase("numeric.AdaptiveNumericEncoder", anenc_case),
        SweepCase("numeric.NumericDecoder", ndec_case),
        SweepCase("numeric.TagClassifier", tgc_case),
    ]


# ----------------------------------------------------------------------
# repro.kge: TransE family + model zoo
# ----------------------------------------------------------------------

def _kge_triples(rng: np.random.Generator, entities: int, relations: int,
                 batch: int) -> tuple[np.ndarray, np.ndarray]:
    positives = np.stack([rng.integers(0, entities, size=batch),
                          rng.integers(0, relations, size=batch),
                          rng.integers(0, entities, size=batch)], axis=1)
    negatives = np.stack([rng.integers(0, entities, size=batch),
                          positives[:, 1],
                          rng.integers(0, entities, size=batch)], axis=1)
    return positives, negatives


def _kge_cases() -> list[SweepCase]:
    from repro.kge.gtranse import GTransE, UncertainTriple
    from repro.kge.models import build_kge_model
    from repro.kge.transe import TransE

    def transe_case():
        rng = _rng(50)
        model = TransE(5, 3, 4, rng)
        positives, negatives = _kge_triples(rng, 5, 3, 6)
        return (lambda: model.margin_loss(positives, negatives,
                                          margin=0.5)), \
            module_targets(model)

    def zoo_case(name, seed):
        def build():
            rng = _rng(seed)
            model = build_kge_model(name, 5, 3, 4, rng)
            positives, negatives = _kge_triples(rng, 5, 3, 6)
            return (lambda: model.margin_loss(positives, negatives,
                                              margin=0.5)), \
                module_targets(model)
        return build

    def gtranse_case():
        rng = _rng(55)
        model = GTransE(5, 3, 4, rng, margin=1.2, alpha=0.8)
        positives = [UncertainTriple(int(rng.integers(5)),
                                     int(rng.integers(3)),
                                     int(rng.integers(5)),
                                     float(rng.uniform(0.1, 1.0)))
                     for _ in range(6)]
        negatives = np.stack([rng.integers(0, 5, size=6),
                              rng.integers(0, 3, size=6),
                              rng.integers(0, 5, size=6)], axis=1)
        return (lambda: model.confidence_loss(positives, negatives)), \
            module_targets(model)

    return [
        SweepCase("kge.TransE", transe_case),
        SweepCase("kge.TransH", zoo_case("transh", 51)),
        SweepCase("kge.DistMult", zoo_case("distmult", 52)),
        SweepCase("kge.ComplEx", zoo_case("complex", 53)),
        SweepCase("kge.RotatE", zoo_case("rotate", 54)),
        SweepCase("kge.GTransE", gtranse_case),
    ]


# ----------------------------------------------------------------------
# Task heads: RCA (GCN + GAT), EAP, FCT
# ----------------------------------------------------------------------

def _tiny_rca_state():
    from repro.tasks.rca.data import RcaState

    adjacency = np.array([[0, 1, 1, 0],
                          [1, 0, 0, 1],
                          [1, 0, 0, 0],
                          [0, 1, 0, 0]], dtype=float)
    features = np.array([[2, 0, 1],
                         [0, 1, 0],
                         [1, 1, 3],
                         [0, 0, 0]], dtype=float)
    return RcaState(node_names=["a", "b", "c", "d"], adjacency=adjacency,
                    features=features, root_index=1)


def _tiny_eap():
    from repro.tasks.eap.data import EapDataset, EventPair

    dataset = EapDataset(
        pairs=[], node_names=["ne0", "ne1", "ne2"],
        neighbor_lists={"ne0": ["ne0", "ne1"],
                        "ne1": ["ne1", "ne0", "ne2"],
                        "ne2": ["ne2"]},
        num_events=4, num_packages=1)
    pairs = [
        EventPair("e0", "e1", "link down", "paging fail", "ne0", "ne1",
                  5.0, 2.0, 1),
        EventPair("e2", "e3", "cpu high", "link down", "ne2", "ne0",
                  1.0, 4.0, 0),
        EventPair("e1", "e2", "paging fail", "cpu high", "ne1", "ne2",
                  3.0, 3.5, 1),
    ]
    return dataset, pairs


def _task_cases() -> list[SweepCase]:
    def rca_gcn_case():
        from repro.tasks.rca.model import RcaModel
        rng = _rng(60)
        state = _tiny_rca_state()
        model = RcaModel(feature_dim=5, rng=rng, gcn_hidden=6, gcn_out=4,
                         mlp_hidden=3)
        event_embeddings = rng.normal(size=(3, 5))
        return (lambda: model.loss(state, event_embeddings)), \
            module_targets(model)

    def rca_gat_case():
        from repro.tasks.rca.gat import GatRcaModel
        rng = _rng(61)
        state = _tiny_rca_state()
        model = GatRcaModel(feature_dim=5, rng=rng, hidden=6, out=4,
                            mlp_hidden=3)
        event_embeddings = rng.normal(size=(3, 5))
        return (lambda: model.loss(state, event_embeddings)), \
            module_targets(model)

    def eap_case():
        from repro.tasks.eap.model import EapModel
        rng = _rng(62)
        dataset, pairs = _tiny_eap()
        model = EapModel(dataset, text_dim=4, rng=rng, node_dim=3,
                         time_dim=2)
        text_i = rng.normal(size=(len(pairs), 4))
        text_j = rng.normal(size=(len(pairs), 4))
        return (lambda: model.loss(pairs, text_i, text_j)), \
            module_targets(model)

    def fct_case():
        # FCT's trainable head is GTransE warm-started from provider
        # embeddings (Sec. V-D3); sweep that configuration explicitly.
        from repro.kge.gtranse import GTransE, UncertainTriple
        rng = _rng(63)
        entity_init = rng.normal(0.0, 0.5, size=(5, 4))
        model = GTransE(5, 3, 4, rng, margin=2.0, alpha=1.0,
                        entity_init=entity_init)
        positives = [UncertainTriple(int(rng.integers(5)),
                                     int(rng.integers(3)),
                                     int(rng.integers(5)),
                                     float(rng.uniform(0.2, 1.0)))
                     for _ in range(5)]
        negatives = np.stack([rng.integers(0, 5, size=5),
                              rng.integers(0, 3, size=5),
                              rng.integers(0, 5, size=5)], axis=1)
        return (lambda: model.confidence_loss(positives, negatives)), \
            module_targets(model)

    return [
        SweepCase("tasks.rca.RcaModel(GCN)", rca_gcn_case),
        SweepCase("tasks.rca.GatRcaModel(GAT)", rca_gat_case),
        SweepCase("tasks.eap.EapModel", eap_case),
        SweepCase("tasks.fct.GTransE(init)", fct_case),
    ]


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------

def default_cases() -> list[SweepCase]:
    """Every registered sweep case, in deterministic order."""
    return (_functional_cases() + _nn_layer_cases() + _nn_loss_cases() +
            _numeric_cases() + _kge_cases() + _task_cases())


def case_names() -> list[str]:
    """Names of every sweep case, in registry order."""
    return [case.name for case in default_cases()]


def run_sweep(names: Iterable[str] | None = None, *, eps: float = 1e-6,
              rtol: float = 1e-4, atol: float = 1e-7) -> list[GradCheckReport]:
    """Run the sweep (optionally restricted to substring-matched ``names``)."""
    wanted = [n.lower() for n in names] if names is not None else None
    reports: list[GradCheckReport] = []
    for case in default_cases():
        if wanted is not None and \
                not any(w in case.name.lower() for w in wanted):
            continue
        fn, wrt = case.build()
        reports.append(gradcheck(fn, wrt, name=case.name, eps=eps,
                                 rtol=rtol, atol=atol))
    if wanted is not None and not reports:
        raise ValueError(f"no sweep case matches {sorted(wanted)}")
    return reports
