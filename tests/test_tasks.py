"""Tests for the three downstream tasks: datasets, models, experiments,
and the adapters that train each task head for both the harness and the
serving façade."""

import numpy as np
import pytest

from repro.evaluation.classification import classification_metrics
from repro.evaluation.kfold import k_fold_splits
from repro.evaluation.ranking import rank_of, ranking_metrics
from repro.kge.gtranse import GTransE, UncertainTriple
from repro.kge.ranking import link_prediction_ranks
from repro.kge.trainer import KgeTrainer
from repro.nn.optim import Adam
from repro.service import RandomProvider, WordEmbeddingProvider
from repro.tasks.eap import EapAdapter, EapExperiment, EapModel, build_eap_dataset
from repro.tasks.fct import FctAdapter, FctExperiment, build_fct_dataset
from repro.tasks.rca import (
    RcaAdapter,
    RcaExperiment,
    RcaModel,
    RcaState,
    build_rca_dataset,
)
from repro.tensor import no_grad
from repro.world import TelecomWorld


@pytest.fixture(scope="module")
def world():
    return TelecomWorld.generate(seed=17, alarms_per_theme=3,
                                 kpis_per_theme=2, topology_nodes=10)


@pytest.fixture(scope="module")
def episodes(world):
    return world.simulate_episodes(30)


class TestRcaData:
    def test_states_built(self, world, episodes):
        dataset = build_rca_dataset(world, episodes)
        assert len(dataset.states) > 10
        assert dataset.num_features == len(world.ontology.events)

    def test_root_node_has_events(self, world, episodes):
        dataset = build_rca_dataset(world, episodes)
        for state in dataset.states:
            assert state.features[state.root_index].sum() > 0

    def test_normalized_adjacency_rows(self, world, episodes):
        dataset = build_rca_dataset(world, episodes)
        norm = dataset.states[0].normalized_adjacency()
        eigenvalues = np.linalg.eigvalsh(norm)
        assert eigenvalues.max() <= 1.0 + 1e-9  # spectral bound of sym-norm adj

    def test_describe_matches_table3_shape(self, world, episodes):
        dataset = build_rca_dataset(world, episodes)
        stats = dataset.describe()
        assert set(stats) == {"graphs", "features", "avg_nodes", "avg_edges"}

    def test_state_validation(self):
        with pytest.raises(ValueError):
            RcaState(node_names=["a"], adjacency=np.zeros((2, 2)),
                     features=np.zeros((1, 3)), root_index=0)
        with pytest.raises(ValueError):
            RcaState(node_names=["a", "b"], adjacency=np.zeros((2, 2)),
                     features=np.zeros((2, 3)), root_index=5)


class TestRcaModel:
    def test_node_initialisation_averages(self):
        state = RcaState(node_names=["a", "b"],
                         adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
                         features=np.array([[2.0, 0.0], [0.0, 0.0]]),
                         root_index=0)
        embeddings = np.array([[1.0, 1.0], [3.0, 3.0]])
        h = RcaModel.node_initialisation(state, embeddings)
        assert np.allclose(h[0], [1.0, 1.0])
        assert np.allclose(h[1], 0.0)

    def test_forward_scores_every_node(self, world, episodes):
        dataset = build_rca_dataset(world, episodes)
        model = RcaModel(8, np.random.default_rng(0), gcn_hidden=8,
                         gcn_out=4, mlp_hidden=4)
        emb = np.random.default_rng(1).normal(
            size=(dataset.num_features, 8))
        scores = model(dataset.states[0], emb)
        assert scores.shape == (dataset.states[0].num_nodes,)

    def test_loss_decreases_with_training(self, world, episodes):
        from repro.nn.optim import Adam
        dataset = build_rca_dataset(world, episodes)
        model = RcaModel(8, np.random.default_rng(0), gcn_hidden=8,
                         gcn_out=4, mlp_hidden=4)
        emb = np.random.default_rng(1).normal(size=(dataset.num_features, 8))
        state = dataset.states[0]
        opt = Adam(model.parameters(), lr=1e-2)
        first = float(model.loss(state, emb).data)
        for _ in range(30):
            opt.zero_grad()
            loss = model.loss(state, emb)
            loss.backward()
            opt.step()
        assert float(model.loss(state, emb).data) < first


class TestRcaExperiment:
    def test_run_with_random_provider(self, world, episodes):
        dataset = build_rca_dataset(world, episodes)
        experiment = RcaExperiment(dataset, seed=0, epochs=2)
        result = experiment.run(RandomProvider(dim=8, seed=0))
        assert result.metrics.mean_rank >= 1.0
        row = result.as_table_row()
        assert set(row) == {"MR", "Hits@1", "Hits@3", "Hits@5"}
        assert 0 <= row["Hits@1"] <= 100


class TestEapData:
    def test_balanced_pairs(self, world, episodes):
        dataset = build_eap_dataset(world, episodes)
        stats = dataset.describe()
        assert stats["event_pairs_positive"] > 0
        # One negative is attempted per positive; allow small shortfalls.
        assert stats["event_pairs_negative"] >= \
            stats["event_pairs_positive"] * 0.8

    def test_positive_pairs_are_true_edges(self, world, episodes):
        dataset = build_eap_dataset(world, episodes)
        for pair in dataset.pairs:
            if pair.label == 1:
                assert world.causal_graph.has_edge(pair.event_i, pair.event_j)

    def test_negative_pairs_are_not_edges_that_fired(self, world, episodes):
        dataset = build_eap_dataset(world, episodes)
        positives = {(p.event_i, p.event_j)
                     for p in dataset.pairs if p.label == 1}
        for pair in dataset.pairs:
            if pair.label == 0:
                assert (pair.event_i, pair.event_j) not in positives

    def test_trigger_times_ordered_for_positives(self, world, episodes):
        dataset = build_eap_dataset(world, episodes)
        ordered = sum(1 for p in dataset.pairs
                      if p.label == 1 and p.time_i <= p.time_j)
        total = sum(1 for p in dataset.pairs if p.label == 1)
        assert ordered / total > 0.95  # cause precedes effect


class TestEapModel:
    def test_forward_shape(self, world, episodes):
        dataset = build_eap_dataset(world, episodes)
        model = EapModel(dataset, text_dim=8, rng=np.random.default_rng(0))
        pairs = dataset.pairs[:4]
        t = np.random.default_rng(1).normal(size=(4, 8))
        logits = model(pairs, t, t)
        assert logits.shape == (4, 2)

    def test_predict_binary(self, world, episodes):
        dataset = build_eap_dataset(world, episodes)
        model = EapModel(dataset, text_dim=8, rng=np.random.default_rng(0))
        pairs = dataset.pairs[:4]
        t = np.random.default_rng(1).normal(size=(4, 8))
        with no_grad():
            preds = model(pairs, t, t).data.argmax(axis=1)
        assert set(np.unique(preds)).issubset({0, 1})


class TestEapExperiment:
    def test_run_with_word_embeddings(self, world, episodes):
        dataset = build_eap_dataset(world, episodes)
        experiment = EapExperiment(dataset, seed=0, epochs=2)
        result = experiment.run(WordEmbeddingProvider(dim=8, seed=0))
        row = result.as_table_row()
        assert set(row) == {"Accuracy", "Precision", "Recall", "F1-score"}
        assert 0 <= row["Accuracy"] <= 100


class TestFctData:
    def test_dataset_built(self, world, episodes):
        dataset = build_fct_dataset(world, episodes)
        stats = dataset.describe()
        assert stats["nodes"] > 2
        assert stats["train"] + stats["valid"] + stats["test"] > 0
        assert stats["test"] >= 1

    def test_held_out_hops_not_in_training_graph(self, world, episodes):
        dataset = build_fct_dataset(world, episodes)
        training = {(q.head, q.relation, q.tail) for q in dataset.quadruples}
        for triple in dataset.test + dataset.valid:
            assert triple not in training

    def test_confidences_in_unit_interval(self, world, episodes):
        dataset = build_fct_dataset(world, episodes)
        for quad in dataset.quadruples:
            assert 0.0 < quad.confidence <= 1.0

    def test_relations_are_ne_type_scoped(self, world, episodes):
        dataset = build_fct_dataset(world, episodes)
        ne_types = set(world.ontology.ne_types)
        for name in dataset.relation_names:
            assert name.startswith("into-")
            assert name.removeprefix("into-") in ne_types

    def test_mask_hop_first_mode(self, world, episodes):
        dataset = build_fct_dataset(world, episodes, mask_hop="first")
        assert dataset.describe()["test"] >= 1
        with pytest.raises(ValueError):
            build_fct_dataset(world, episodes, mask_hop="bogus")

    def test_no_chains_raises(self, world):
        with pytest.raises(ValueError):
            build_fct_dataset(world, [])


class TestFctExperiment:
    def test_run_with_random_provider(self, world, episodes):
        dataset = build_fct_dataset(world, episodes)
        experiment = FctExperiment(dataset, seed=0, epochs=5)
        result = experiment.run(RandomProvider(dim=16, seed=0))
        row = result.as_table_row()
        assert set(row) == {"MRR", "Hits@1", "Hits@3", "Hits@10"}
        assert 0 <= row["MRR"] <= 100


# ----------------------------------------------------------------------
# The training procedures the harnesses and adapters ran before each
# harness evaluated its serving adapter, kept as references.  ``train``
# is an index array (the harness) or a state/pair count (the service).
# ----------------------------------------------------------------------
def _unit_rows_reference(matrix, eps):
    return matrix / np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True),
                               eps)


def _rca_reference(dataset, vectors, seed, epochs, train, valid=None):
    """The RCA scorer: per-state Adam steps, lr 5e-3, early selection on
    the validation mean rank when ``valid`` is given."""
    embeddings = _unit_rows_reference(vectors, 1e-12)
    rng = np.random.default_rng(seed + 100)
    model = RcaModel(embeddings.shape[1], rng)
    optimizer = Adam(model.parameters(), lr=5e-3)
    best_state, best_valid = model.state_dict(), np.inf

    def rank(index):
        state = dataset.states[index]
        with no_grad():
            scores = model(state, embeddings).data
        return rank_of(scores, state.root_index, higher_is_better=True)

    for _ in range(epochs):
        for index in rng.permutation(train):
            state = dataset.states[index]
            optimizer.zero_grad()
            loss = model.loss(state, embeddings)
            loss.backward()
            optimizer.step()
        if valid is not None:
            valid_mr = np.mean([rank(i) for i in valid])
            if valid_mr < best_valid:
                best_valid = valid_mr
                best_state = model.state_dict()
    if valid is not None:
        model.load_state_dict(best_state)
    return model, embeddings


def _rca_scores_reference(model, embeddings, state):
    with no_grad():
        return model(state, embeddings).data


def _eap_reference(dataset, vectors, seed, epochs, train):
    """The EAP classifier: Adam lr 0.01, batches of 32, NE dim 8."""
    pairs = dataset.pairs
    names = sorted({p.name_i for p in pairs} | {p.name_j for p in pairs})
    unit = _unit_rows_reference(vectors, 1e-12)
    lookup = {n: unit[i] for i, n in enumerate(names)}
    text_i = np.stack([lookup[p.name_i] for p in pairs])
    text_j = np.stack([lookup[p.name_j] for p in pairs])
    rng = np.random.default_rng(seed + 300)
    model = EapModel(dataset, text_i.shape[1], rng, node_dim=8)
    optimizer = Adam(model.parameters(), lr=0.01)
    for _ in range(epochs):
        order = rng.permutation(train)
        for start in range(0, len(order), 32):
            index = order[start:start + 32]
            batch = [pairs[i] for i in index]
            optimizer.zero_grad()
            loss = model.loss(batch, text_i[index], text_j[index])
            loss.backward()
            optimizer.step()
    return model, text_i, text_j


def _eap_replies_reference(model, text_i, text_j, pairs):
    with no_grad():
        logits = model(pairs, text_i, text_j).data
    shifted = logits - logits.max(axis=1, keepdims=True)
    probabilities = np.exp(shifted)
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    return [{"triggers": bool(row.argmax() == 1), "confidence": float(row[1])}
            for row in probabilities]


def _fct_reference(dataset, vectors, seed, epochs, facts, valid=(),
                   known=None):
    """GTransE: lr 0.02, batches of 32, margin 2, alpha 1, 4 negatives."""
    rng = np.random.default_rng(seed + 700)
    entity_init = _unit_rows_reference(vectors, 1e-9)
    model = GTransE(dataset.num_entities, dataset.num_relations,
                    dim=entity_init.shape[1], rng=rng, margin=2.0, alpha=1.0,
                    entity_init=entity_init)
    trainer = KgeTrainer(model, facts, dataset.num_entities, rng=rng,
                         learning_rate=0.02, batch_size=32, margin=2.0,
                         negatives_per_positive=4)
    trainer.fit(epochs, valid_triples=valid, known=known)
    return model


def _trace_reference(model, dataset, head, top_k):
    best = {}
    for relation in range(dataset.num_relations):
        for tail, distance in enumerate(model.score_all_tails(head, relation)):
            score = -float(distance)
            if tail != head and (tail not in best or score > best[tail][0]):
                best[tail] = (score, relation)
    ranked = sorted(best.items(), key=lambda item: -item[1][0])[:top_k]
    return [{"alarm": dataset.entity_names[tail],
             "relation": dataset.relation_names[relation], "score": score}
            for tail, (score, relation) in ranked]


@pytest.fixture(scope="module")
def tiny():
    """The serve-net tiny world (seed 11) with its three datasets."""
    world = TelecomWorld.generate(seed=11, alarms_per_theme=2,
                                  kpis_per_theme=2, topology_nodes=6)
    episodes = world.simulate_episodes(30)
    return (build_rca_dataset(world, episodes),
            build_eap_dataset(world, episodes),
            build_fct_dataset(world, episodes))


def _vectors(names):
    """What a fresh ``RandomProvider(dim=16, seed=0)`` gives ``names``."""
    return RandomProvider(dim=16, seed=0).encode_names(names)


class TestOneModelPerTask:
    """Each harness trains and scores through its serving adapter, bit for
    bit as the procedures above did."""

    SEED = 3

    def test_rca_fold_scores_and_metrics(self, tiny):
        dataset = tiny[0]
        vectors = _vectors(dataset.event_names)
        splits = k_fold_splits(len(dataset.states), 5,
                               rng=np.random.default_rng(self.SEED))
        ranks = []
        for fold, split in enumerate(splits):
            model, embeddings = _rca_reference(
                dataset, vectors, self.SEED + fold, 3, split.train,
                split.valid)
            adapter = RcaAdapter(dataset, seed=self.SEED + fold, epochs=3)
            adapter.fit(vectors, train=split.train, valid=split.valid)
            for index in split.test:
                state = dataset.states[index]
                expected = _rca_scores_reference(model, embeddings, state)
                got = adapter.scores(state)
                assert got.tobytes() == expected.tobytes()
                ranks.append(rank_of(expected, state.root_index,
                                     higher_is_better=True))
        result = RcaExperiment(dataset, seed=self.SEED, epochs=3).run(
            RandomProvider(dim=16, seed=0))
        assert result.metrics == ranking_metrics(ranks, hit_levels=(1, 3, 5))

    def test_eap_fold_predictions_and_metrics(self, tiny):
        dataset = tiny[1]
        pairs = dataset.pairs
        vectors = _vectors(dataset.event_names)
        splits = k_fold_splits(len(pairs), 5,
                               rng=np.random.default_rng(self.SEED))
        predictions = np.zeros(len(pairs), dtype=int)
        for fold, split in enumerate(splits):
            train = np.concatenate([split.train, split.valid])
            model, text_i, text_j = _eap_reference(
                dataset, vectors, self.SEED + fold, 2, train)
            test = [pairs[i] for i in split.test]
            with no_grad():
                expected = model(test, text_i[split.test],
                                 text_j[split.test]).data.argmax(axis=1)
            adapter = EapAdapter(dataset, seed=self.SEED + fold, epochs=2)
            adapter.fit(vectors, train=train)
            got = [verdict["triggers"] for verdict in adapter.predict(test)]
            assert got == [bool(p) for p in expected]
            predictions[split.test] = expected
        labels = np.array([p.label for p in pairs])
        result = EapExperiment(dataset, seed=self.SEED, epochs=2).run(
            RandomProvider(dim=16, seed=0))
        assert result.metrics == classification_metrics(predictions, labels)

    def test_fct_test_ranks_and_metrics(self, tiny):
        dataset = tiny[2]
        vectors = _vectors(dataset.entity_names)
        known = dataset.all_known()
        model = _fct_reference(dataset, vectors, self.SEED, 3,
                               dataset.quadruples, dataset.valid, known)
        expected = link_prediction_ranks(model, dataset.test,
                                         known_triples=known, predict="tail")
        adapter = FctAdapter(dataset, seed=self.SEED, epochs=3).fit(
            vectors, facts=dataset.quadruples, valid=dataset.valid,
            known=known)
        fitted = adapter.model.state_dict()
        for name, value in model.state_dict().items():
            assert fitted[name].tobytes() == value.tobytes()
        assert link_prediction_ranks(adapter.model, dataset.test,
                                     known_triples=known,
                                     predict="tail") == expected
        result = FctExperiment(dataset, seed=self.SEED, epochs=3).run(
            RandomProvider(dim=16, seed=0))
        assert result.metrics == ranking_metrics(expected,
                                                 hit_levels=(1, 3, 10))

    def test_served_replies_of_adapters_fitted_on_all_data(self, tiny):
        rca_data, eap_data, fct_data = tiny
        vectors = _vectors(rca_data.event_names)
        model, embeddings = _rca_reference(rca_data, vectors, self.SEED, 2,
                                           len(rca_data.states))
        rca = RcaAdapter(rca_data, seed=self.SEED, epochs=2).fit(vectors)
        for state in rca_data.states:
            scores = _rca_scores_reference(model, embeddings, state)
            assert rca.rank(state) == [(state.node_names[i], float(scores[i]))
                                       for i in np.argsort(-scores)]

        vectors = _vectors(eap_data.event_names)
        model, text_i, text_j = _eap_reference(eap_data, vectors, self.SEED,
                                               2, len(eap_data.pairs))
        eap = EapAdapter(eap_data, seed=self.SEED, epochs=2).fit(vectors)
        assert eap.predict(eap_data.pairs) == _eap_replies_reference(
            model, text_i, text_j, eap_data.pairs)

        vectors = _vectors(fct_data.entity_names)
        facts = fct_data.quadruples + [
            UncertainTriple(head=h, relation=r, tail=t, confidence=1.0)
            for h, r, t in fct_data.valid + fct_data.test]
        model = _fct_reference(fct_data, vectors, self.SEED, 3, facts)
        fct = FctAdapter(fct_data, seed=self.SEED, epochs=3).fit(vectors)
        for head, alarm in enumerate(fct_data.entity_names):
            for top_k in (1, 3, 5):
                assert fct.trace(alarm, top_k=top_k) == _trace_reference(
                    model, fct_data, head, top_k)

    def test_trace_filters_retrieved_candidates_to_the_catalog(self, tiny):
        """Retrieved hits outside the catalog, and the alarm itself, are
        dropped: the reply equals the one for the filtered list, and the
        index is searched with the vector the alarm was fitted on."""
        dataset = tiny[2]
        vectors = _vectors(dataset.entity_names)
        fct = FctAdapter(dataset, seed=self.SEED, epochs=2).fit(vectors)
        alarm, first, second = dataset.entity_names[:3]
        queries = []

        class Index:
            def query(self, query, k):
                queries.append((query, k))
                return [[(alarm, 1.0), ("not in the catalog", 0.9),
                         (second, 0.8), (first, 0.7)]]

        fct.attach_index(Index())
        reply = fct.trace(alarm, top_k=3)
        assert reply == fct.trace(alarm, top_k=3, candidates=[second, first])
        assert {hop["alarm"] for hop in reply} == {first, second}
        [(query, k)] = queries
        assert query.tobytes() == vectors[:1].tobytes()
        assert k == 16

