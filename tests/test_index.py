"""Tests for the sharded mmap ANN retrieval tier (:mod:`repro.index`).

Covers the index itself (build/query determinism, recall against the
brute-force oracle, incremental add/flush with shadowing, crash-safe
generation swaps including a real ``SIGKILL`` mid-build), the
:class:`~repro.serving.PersistentProvider` that keeps an index in step
with the serving store, and the ``python -m repro index`` CLI.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.index import (
    DEFAULT_NUM_SHARDS,
    FingerprintMismatch,
    VectorIndex,
    build_from_store,
    coarse_cluster,
    default_nlist,
    exact_topk,
    index_main,
    shard_for_name,
    synthetic_queries,
    synthetic_world,
)
from repro.index import ivf
from repro.serving import (
    EmbeddingStore,
    FaultAnalysisService,
    PersistentProvider,
    ServiceConfig,
)
from repro.service import RandomProvider


def _world(count=2000, dim=16, seed=0):
    names, vectors = synthetic_world(count, dim, seed=seed)
    return names, vectors, dict(zip(names, vectors))


# ----------------------------------------------------------------------
# Clustering / sharding primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_shard_for_name_is_stable_and_in_range(self):
        routed = {shard_for_name(f"entity-{i}", 8) for i in range(200)}
        assert routed <= set(range(8))
        assert len(routed) > 1           # actually spreads
        # process-stable contract: a pinned value, not hash()
        assert shard_for_name("alarm: link down", 4) == \
            shard_for_name("alarm: link down", 4)

    def test_coarse_cluster_deterministic_and_covering(self):
        _, vectors, _ = _world(300, 8)
        c1, a1 = coarse_cluster(vectors, 16, seed=3)
        c2, a2 = coarse_cluster(vectors, 16, seed=3)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_allclose(c1, c2)
        assert a1.shape == (300,)
        assert set(np.unique(a1)) <= set(range(16))

    def test_default_nlist_monotone_and_capped(self):
        assert default_nlist(1) == 1
        assert default_nlist(100) <= default_nlist(10_000)
        assert default_nlist(10**9) == 1024


# ----------------------------------------------------------------------
# The vectorised Lloyd update against the per-cell loop it replaced
# ----------------------------------------------------------------------
def _per_cell_coarse_cluster(vectors, nlist, seed=0, reseeds=None):
    """``coarse_cluster`` as a Python loop over cells: the reference.

    ``reseeds`` (a list) collects one entry per empty-cell re-seed.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    count = vectors.shape[0]
    nlist = max(1, min(int(nlist), count))
    rng = np.random.default_rng(seed)
    if count > ivf.TRAIN_SAMPLE_CAP:
        sample = rng.choice(count, size=ivf.TRAIN_SAMPLE_CAP, replace=False)
        sample.sort()
        train = vectors[sample]
    else:
        train = vectors
    centroids = ivf._seed_centroids(train, nlist, rng)
    for _ in range(ivf.DEFAULT_ITERATIONS):
        assignments = np.argmax(train @ centroids.T, axis=1)
        for cell in range(nlist):
            members = train[assignments == cell]
            if len(members):
                centroids[cell] = members.mean(axis=0)
            else:
                similarity = (train * centroids[assignments]).sum(axis=1)
                centroids[cell] = train[int(np.argmin(similarity))]
                if reseeds is not None:
                    reseeds.append(cell)
        centroids = ivf._normalise(centroids).astype(np.float32)
    assignments = np.argmax(vectors @ centroids.T, axis=1).astype(np.int64)
    return centroids, assignments


def _duplicated_world(count, dim, copies, seed):
    """``copies`` rows repeat one of two points; the rest are distinct.

    k-means++ seeds several cells on one repeated point, so the later
    ones go empty and take the re-seed branch.
    """
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((2, dim))
    rows = np.concatenate([base[rng.integers(2, size=copies)],
                           rng.standard_normal((count - copies, dim))])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows.astype(np.float32)


def _assert_same_clustering(vectors, nlist, seed, reseeds=None):
    want = _per_cell_coarse_cluster(vectors, nlist, seed, reseeds)
    got = coarse_cluster(vectors, nlist, seed)
    assert got[0].dtype == want[0].dtype
    assert got[0].tobytes() == want[0].tobytes()
    np.testing.assert_array_equal(got[1], want[1])


class TestCoarseClusterMatchesPerCellLoop:
    @pytest.mark.parametrize("count,dim,nlist,seed", [
        (300, 8, 16, 3),
        (300, 8, 16, 4),
        (1024, 32, default_nlist(1024), 0),
        (2048, 32, default_nlist(2048), 7),
        (500, 2, 40, 1),
    ])
    def test_clustered_worlds(self, count, dim, nlist, seed):
        _, vectors, _ = _world(count, dim, seed=seed)
        _assert_same_clustering(vectors, nlist, seed)

    @pytest.mark.parametrize("count,dim,nlist,copies,seed", [
        (200, 2, 54, 170, 0),
        (200, 2, 54, 170, 12),
        (60, 3, 30, 40, 19),
    ])
    def test_empty_cell_reseeds_in_cell_order(self, count, dim, nlist,
                                              copies, seed):
        """A re-seed sees lower cells at their means, higher ones not.

        In these worlds, re-seeding only after every mean is taken picks
        different rows, so the order is pinned too.
        """
        reseeds = []
        vectors = _duplicated_world(count, dim, copies, seed)
        _assert_same_clustering(vectors, nlist, seed, reseeds)
        assert len(reseeds) > 1

    def test_subsampled_training_set(self):
        count = ivf.TRAIN_SAMPLE_CAP + 500
        _, vectors, _ = _world(count, 4, seed=5)
        _assert_same_clustering(vectors, 24, seed=5)


# ----------------------------------------------------------------------
# Build / query
# ----------------------------------------------------------------------
class TestVectorIndex:
    def test_build_query_roundtrip_and_recall(self, tmp_path):
        names, vectors, mapping = _world()
        index = VectorIndex(tmp_path, fingerprint="fp")
        assert index.build(mapping) == len(names)
        queries = synthetic_queries(vectors, 50, seed=1)
        oracle = exact_topk(vectors, names, queries, 10)
        answers = index.query(queries, k=10)
        overlap = sum(
            sum(1 for n, _ in want if n in {m for m, _ in got})
            for got, want in zip(answers, oracle))
        assert overlap / (50 * 10) >= 0.95
        # scores are cosine: sorted descending, within [-1, 1]
        for hits in answers:
            scores = [s for _, s in hits]
            assert scores == sorted(scores, reverse=True)
            assert all(-1.001 <= s <= 1.001 for s in scores)

    def test_query_results_deterministic_across_rebuilds(self, tmp_path):
        names, vectors, mapping = _world(800, 8)
        queries = synthetic_queries(vectors, 20, seed=2)
        runs = []
        for sub in ("a", "b"):
            index = VectorIndex(tmp_path / sub, fingerprint="fp")
            index.build(mapping)
            runs.append(index.query(queries, k=5))
        assert runs[0] == runs[1]

    def test_full_probe_matches_exact_scan(self, tmp_path):
        names, vectors, mapping = _world(500, 8)
        index = VectorIndex(tmp_path, fingerprint="fp", nprobe=10_000)
        index.build(mapping)
        queries = synthetic_queries(vectors, 25, seed=4)
        oracle = exact_topk(vectors, names, queries, 5)
        for got, want in zip(index.query(queries, k=5), oracle):
            assert [n for n, _ in got] == [n for n, _ in want]

    def test_single_vector_query_shape(self, tmp_path):
        names, vectors, mapping = _world(100, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        [hits] = index.query(vectors[0], k=3)
        assert hits[0][0] == names[0]

    def test_reopen_serves_persisted_generation(self, tmp_path):
        names, vectors, mapping = _world(200, 8)
        VectorIndex(tmp_path, fingerprint="fp").build(mapping)
        reopened = VectorIndex(tmp_path, fingerprint="fp")
        assert len(reopened) == 200
        assert names[7] in reopened
        [hits] = reopened.query(vectors[7], k=1)
        assert hits[0][0] == names[7]

    def test_fingerprint_mismatch_refused(self, tmp_path):
        _, _, mapping = _world(50, 8)
        VectorIndex(tmp_path, fingerprint="ckpt-a").build(mapping)
        with pytest.raises(FingerprintMismatch):
            VectorIndex(tmp_path, fingerprint="ckpt-b")

    def test_dim_and_validation_errors(self, tmp_path):
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build({"a": np.ones(8), "b": -np.ones(8)})
        with pytest.raises(ValueError):
            index.query(np.ones(9), k=1)
        with pytest.raises(ValueError):
            index.query(np.ones(8), k=0)
        with pytest.raises(ValueError):
            VectorIndex(tmp_path / "x", num_shards=0)
        with pytest.raises(ValueError):
            VectorIndex(tmp_path / "y", nprobe=0)

    def test_empty_index_answers_empty(self, tmp_path):
        index = VectorIndex(tmp_path, fingerprint="fp")
        assert index.query(np.ones(4), k=3) == [[]]
        assert len(index) == 0
        assert index.get("nope") is None


class TestAddFlush:
    def test_pending_answers_immediately_and_shadows(self, tmp_path):
        names, vectors, mapping = _world(300, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        # a brand-new name is queryable before any flush
        fresh = vectors[0] + 0.01
        index.add({"fresh-entity": fresh})
        [hits] = index.query(fresh, k=2)
        assert hits[0][0] == "fresh-entity"
        # a same-name add shadows the shard row it replaces: the buffered
        # (negated) vector answers, the old shard row never does
        index.add({names[5]: -vectors[5]})
        [hits] = index.query(-vectors[5], k=1)
        assert hits[0][0] == names[5]
        assert hits[0][1] == pytest.approx(1.0, abs=1e-5)
        [hits] = index.query(vectors[5], k=10)
        assert names[5] not in {n for n, _ in hits}

    def test_flush_persists_and_only_rewrites_affected_shards(
            self, tmp_path):
        names, vectors, mapping = _world(300, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        before = {s.stem for s in index._shards if s is not None}
        index.add({"added-one": vectors[0] + 0.02})
        assert index.flush() == 1
        after = {s.stem for s in index._shards if s is not None}
        touched = shard_for_name("added-one", index.num_shards)
        changed = before.symmetric_difference(after)
        # exactly one shard got a new generation file
        assert len(changed & after) == 1
        assert any(stem.endswith(f"-{touched:04d}") for stem in changed)
        reopened = VectorIndex(tmp_path, fingerprint="fp")
        assert "added-one" in reopened
        assert reopened.flush() == 0

    def test_add_then_build_drops_pending(self, tmp_path):
        _, vectors, mapping = _world(60, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.add({"doomed": vectors[0]})
        index.build(mapping)
        assert "doomed" not in index


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_sigkill_mid_build_preserves_previous_generation(
            self, tmp_path):
        names, vectors, mapping = _world(200, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        generation = index._generation

        # A child process starts a full rebuild with different data and
        # SIGKILLs itself after shard files are written but *before* the
        # manifest commit point.
        script = f"""
import os, signal
import numpy as np
import repro.index.index as index_mod
from repro.index import VectorIndex, synthetic_world

real = index_mod.atomic_write_text
def dying_write(path, text):
    if str(path).endswith("manifest.json"):
        os.kill(os.getpid(), signal.SIGKILL)
    return real(path, text)
index_mod.atomic_write_text = dying_write

names, vectors = synthetic_world(150, 8, seed=9)
index = VectorIndex({str(tmp_path)!r}, fingerprint="fp")
index.build(dict(zip(names, vectors)))
raise SystemExit("unreachable: the build should have been killed")
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, timeout=120,
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).parent.parent / "src")})
        assert result.returncode == -9, result.stderr

        # Orphaned next-generation files exist, but the manifest still
        # names the old generation and every query answers from it.
        leftovers = list(tmp_path.glob("shard-*"))
        assert len(leftovers) > len(
            [s for s in index._shards if s is not None]) * 2 - 1
        survivor = VectorIndex(tmp_path, fingerprint="fp")
        assert survivor._generation == generation
        assert len(survivor) == len(names)
        [hits] = survivor.query(vectors[3], k=1)
        assert hits[0][0] == names[3]

        # The next successful commit garbage-collects the orphans.
        survivor.build(mapping)
        stems = {p.name.split(".")[0] for p in tmp_path.glob("shard-*")}
        live = {s.stem for s in survivor._shards if s is not None}
        assert stems == live

    def test_unreadable_manifest_raises_index_corrupt(self, tmp_path):
        from repro.index import IndexCorrupt

        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(IndexCorrupt):
            VectorIndex(tmp_path, fingerprint="fp")


# ----------------------------------------------------------------------
# The serving stack over an index: PersistentProvider and the service
# ----------------------------------------------------------------------
def _service(tmp_path, index):
    """A service over the disk store in ``tmp_path / "store"`` (f1)."""
    return FaultAnalysisService(
        RandomProvider(dim=8, seed=0),
        config=ServiceConfig(max_wait_ms=2, backoff_s=0.001),
        store_dir=tmp_path / "store", fingerprint="f1", index=index)


class TestIndexedProvider:
    def test_encode_names_keeps_index_in_sync(self, tmp_path, monkeypatch):
        import repro.serving.store as store_mod

        monkeypatch.setattr(store_mod, "INDEX_FLUSH_ROWS", 3)
        index = VectorIndex(tmp_path / "idx", fingerprint="fp")
        provider = PersistentProvider(RandomProvider(dim=8, seed=0),
                                      EmbeddingStore(None, fingerprint="fp"),
                                      index)
        provider.encode_names(["a", "b"])
        assert "a" in index and index.stats()["pending"] == 2
        provider.encode_names(["c"])         # reaches the flush threshold
        assert index.stats()["pending"] == 0
        [hits] = index.query(provider.encode_names(["a"]), k=1)
        assert hits[0][0] == "a"

    def test_populate_from_store(self, tmp_path):
        catalog = [f"ev-{i}" for i in range(40)]
        with _service(tmp_path, None) as service:
            service.embed(catalog)
        index = VectorIndex(tmp_path / "idx", fingerprint="f1")
        with _service(tmp_path, index):     # empty index, full store
            assert len(index) == len(catalog)
            assert index.stats()["generation"] == 1
        with _service(tmp_path, index):     # a populated index is kept
            assert index.stats()["generation"] == 1

    def test_empty_store_builds_no_generation(self, tmp_path):
        index = VectorIndex(tmp_path / "idx", fingerprint="f1")
        with _service(tmp_path, index):
            assert index.stats()["generation"] == 0
        assert not (tmp_path / "idx" / "manifest.json").exists()

    def test_stored_name_missing_from_index_added_on_next_embed(
            self, tmp_path):
        with _service(tmp_path, None) as service:
            service.embed(["a", "b"])
        index = VectorIndex(tmp_path / "idx", fingerprint="f1")
        index.build({"b": np.ones(8)})       # not empty: no build at start
        with _service(tmp_path, index) as service:
            assert "a" not in index
            vector = service.embed(["a"])[0]
            assert service.stats()["cache"]["misses"] == 0   # the store's
            assert np.allclose(index.get("a"),
                               vector / np.linalg.norm(vector), atol=1e-6)

    def test_build_from_store_reads_in_batches(self, tmp_path, monkeypatch):
        import repro.index.index as index_mod

        store = EmbeddingStore(tmp_path / "store", fingerprint="fp")
        PersistentProvider(RandomProvider(dim=8, seed=0),
                           store).encode_names([f"n-{i}" for i in range(20)])
        batches = []
        real_get_many = store.get_many

        def get_many(names):
            batches.append(len(names))
            return real_get_many(names)

        monkeypatch.setattr(index_mod, "INGEST_BATCH", 8)
        monkeypatch.setattr(store, "get_many", get_many)
        index = VectorIndex(tmp_path / "idx", fingerprint="fp")
        assert build_from_store(index, store) == 20
        assert batches == [8, 8, 4]
        assert len(index) == 20

    def test_store_index_fingerprint_mismatch_rejected(self, tmp_path):
        store = EmbeddingStore(tmp_path / "store", fingerprint="ckpt-a")
        index = VectorIndex(tmp_path / "idx", fingerprint="ckpt-b")
        with pytest.raises(ValueError, match="fingerprint"):
            PersistentProvider(RandomProvider(dim=8, seed=0), store, index)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_build_query_stats_roundtrip(self, tmp_path, capsys):
        directory = str(tmp_path / "idx")
        assert index_main(["build", "--dir", directory,
                           "--synthetic", "300", "--dim", "8"]) == 0
        built = json.loads(capsys.readouterr().out)
        assert built["built"] == 300

        assert index_main(["query", "--dir", directory,
                           "--name", "entity-0", "--k", "3"]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["query"] == "entity-0"
        assert answer["neighbours"][0]["name"] == "entity-0"

        assert index_main(["stats", "--dir", directory]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["count"] == 300
        assert stats["generation"] == 1
        assert sum(stats["shard_counts"]) == 300

    def test_build_from_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        store = EmbeddingStore(store_dir, fingerprint="fp")
        PersistentProvider(RandomProvider(dim=8, seed=0),
                           store).encode_names([f"n-{i}" for i in range(20)])
        assert index_main(["build", "--dir", str(tmp_path / "idx"),
                           "--store", store_dir,
                           "--fingerprint", "fp"]) == 0
        assert json.loads(capsys.readouterr().out)["built"] == 20

    def test_build_from_empty_store_fails(self, tmp_path, capsys):
        assert index_main(["build", "--dir", str(tmp_path / "idx"),
                           "--store", str(tmp_path / "store"),
                           "--fingerprint", "fp"]) == 1
        assert "holds no names" in capsys.readouterr().err

    def test_build_flag_validation_and_unknown_name(self, tmp_path,
                                                    capsys):
        assert index_main(["build", "--dir", str(tmp_path)]) == 2
        capsys.readouterr()
        assert index_main(["build", "--dir", str(tmp_path / "i"),
                           "--synthetic", "50", "--dim", "8"]) == 0
        capsys.readouterr()
        assert index_main(["query", "--dir", str(tmp_path / "i"),
                           "--name", "missing-name"]) == 1
        assert "unknown name" in capsys.readouterr().out

    def test_top_level_cli_forwards_index(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["index", "build", "--dir", str(tmp_path / "idx"),
                     "--synthetic", "40", "--dim", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["built"] == 40
