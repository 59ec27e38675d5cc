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
import threading
import time
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
from repro.index.shards import read_shard, shard_stem, write_shard
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
def _choice_seed_centroids(vectors, nlist, rng, uniform_picks=None):
    """k-means++ seeding drawn with ``rng.choice``: the reference.

    ``uniform_picks`` (a list) collects one entry per pick made with
    every distance zero (the ``total <= 0`` branch).
    """
    count = vectors.shape[0]
    first = int(rng.integers(count))
    chosen = [first]
    distances = 1.0 - vectors @ vectors[first]
    for _ in range(1, nlist):
        distances = np.maximum(distances, 0.0)
        total = float(distances.sum())
        if total <= 0.0:
            pick = int(rng.integers(count))
            if uniform_picks is not None:
                uniform_picks.append(pick)
        else:
            pick = int(rng.choice(count, p=distances / total))
        chosen.append(pick)
        distances = np.minimum(distances, 1.0 - vectors @ vectors[pick])
    return vectors[chosen].copy()


def _per_cell_coarse_cluster(vectors, nlist, seed=0, reseeds=None):
    """``coarse_cluster`` as a Python loop over cells: the reference.

    ``reseeds`` (a list) collects one entry per empty-cell re-seed.
    Seeds with :func:`_choice_seed_centroids`, so it shares no code with
    the clustering it checks.
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
    centroids = _choice_seed_centroids(train, nlist, rng)
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


class TestSeedingMatchesChoice:
    """``_seed_centroids`` draws the picks ``rng.choice`` draws."""

    @staticmethod
    def _assert_same_seeds(vectors, nlist, seed, uniform_picks=None):
        want_rng = np.random.default_rng(seed)
        want = _choice_seed_centroids(vectors, nlist, want_rng,
                                      uniform_picks)
        got_rng = np.random.default_rng(seed)
        got = ivf._seed_centroids(vectors, nlist, got_rng)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        # Both consumed the same draws from the generator.
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("count,dim,nlist", [
        (2, 4, 2), (50, 3, 7), (300, 8, 16), (2048, 32, 181),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7, 29])
    def test_clustered_worlds(self, count, dim, nlist, seed):
        _, vectors, _ = _world(count, dim, seed=seed)
        self._assert_same_seeds(vectors.astype(np.float32), nlist, seed)

    @pytest.mark.parametrize("count,dim,nlist,seed", [
        (40, 2, 8, 0), (40, 3, 8, 2), (50, 4, 12, 3),
    ])
    def test_all_distances_zero_branch(self, count, dim, nlist, seed):
        """Every row repeats one of two points: once both are chosen,
        the remaining picks are uniform."""
        uniform_picks = []
        vectors = _duplicated_world(count, dim, count, seed)
        self._assert_same_seeds(vectors, nlist, seed, uniform_picks)
        assert uniform_picks


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

    def test_write_shard_returns_what_read_shard_loads(self, tmp_path):
        names, vectors, _ = _world(500, 8)
        written = write_shard(tmp_path, "shard-000001-0000", names,
                              vectors.astype(np.float32), 24, seed=3)
        loaded = read_shard(tmp_path, "shard-000001-0000")
        assert written.names == loaded.names
        assert written.name_rows == loaded.name_rows
        assert written.stem == loaded.stem
        for field in ("vectors", "centroids", "offsets"):
            got, want = getattr(written, field), getattr(loaded, field)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_fold_writes_the_files_of_a_reference_merge(self, tmp_path):
        """Re-added names keep their row, new ones append in order."""
        names, vectors, mapping = _world(600, 8)
        index = VectorIndex(tmp_path / "idx", fingerprint="fp")
        index.build(mapping)
        before = list(index._shards)
        rng = np.random.default_rng(4)
        added = {names[i]: rng.normal(size=8) for i in range(0, 600, 5)}
        added.update({f"new-{i}": rng.normal(size=8) for i in range(40)})
        index.add(added)
        buffered = dict(index._pending)
        assert index.flush() == len(added)
        generation = index._generation
        per_shard = {}
        for name, vector in buffered.items():
            shard_id = shard_for_name(name, index.num_shards)
            per_shard.setdefault(shard_id, {})[name] = vector
        reference = tmp_path / "reference"
        reference.mkdir()
        assert len(per_shard) == index.num_shards
        for shard_id, fresh in per_shard.items():
            existing = before[shard_id]
            merged = {name: np.asarray(existing.vectors[row])
                      for row, name in enumerate(existing.names)}
            merged.update(fresh)
            stem = shard_stem(generation, shard_id)
            write_shard(reference, stem, list(merged),
                        np.stack(list(merged.values())),
                        default_nlist(len(merged)), seed=index.seed + shard_id)
            for suffix in (".npy", ".meta.json"):
                assert (reference / f"{stem}{suffix}").read_bytes() == \
                    (tmp_path / "idx" / f"{stem}{suffix}").read_bytes()


class TestFoldKeepsRowsVisible:
    """A fold's rows answer from the buffer until its commit."""

    @staticmethod
    def _pause_fold(monkeypatch):
        """Make the next fold stop in its first shard write.

        Returns ``(entered, release)``: ``entered`` is set once the fold
        is inside ``write_shard``; setting ``release`` lets it go on.
        """
        import repro.index.index as index_mod

        entered, release = threading.Event(), threading.Event()
        real_write = index_mod.write_shard

        def paused_write(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                assert release.wait(30.0)
            return real_write(*args, **kwargs)

        monkeypatch.setattr(index_mod, "write_shard", paused_write)
        return entered, release

    @staticmethod
    def _start(target):
        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        return thread

    @pytest.mark.timeout(60)
    def test_folded_rows_answer_during_the_fold(self, tmp_path,
                                               monkeypatch):
        names, vectors, mapping = _world(400, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(dict(list(mapping.items())[:200]))
        index.add(dict(list(mapping.items())[200:]))
        entered, release = self._pause_fold(monkeypatch)
        folded = self._start(index.flush)
        try:
            assert entered.wait(10.0)
            name, vector = names[300], vectors[300]
            [hits] = index.query(vector, k=1)
            member, stored = name in index, index.get(name)
            assert hits[0][0] == name
            assert member
            unit = vector / np.linalg.norm(vector)
            np.testing.assert_allclose(stored, unit, atol=1e-6)
            assert index.stats()["pending"] == 200
            assert index.stats()["folding"] == 200
        finally:
            release.set()
            folded.join(timeout=30.0)
        assert not folded.is_alive()
        stats = index.stats()
        assert (stats["pending"], stats["folding"]) == (0, 0)
        assert stats["count"] == 400
        [hits] = index.query(vectors[300], k=1)
        assert hits[0][0] == names[300]

    @pytest.mark.timeout(60)
    def test_a_name_readded_during_the_fold_still_wins(self, tmp_path,
                                                      monkeypatch):
        names, vectors, mapping = _world(300, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.add(mapping)
        entered, release = self._pause_fold(monkeypatch)
        folded = self._start(index.flush)
        try:
            assert entered.wait(10.0)
            index.add({names[7]: -vectors[7]})
        finally:
            release.set()
            folded.join(timeout=30.0)
        assert not folded.is_alive()
        assert index.stats()["pending"] == 1
        [hits] = index.query(-vectors[7], k=1)
        assert hits[0] == (names[7], pytest.approx(1.0, abs=1e-5))
        [hits] = index.query(vectors[7], k=10)
        assert names[7] not in {name for name, _ in hits}
        index.flush()
        [hits] = index.query(-vectors[7], k=1)
        assert hits[0] == (names[7], pytest.approx(1.0, abs=1e-5))

    @pytest.mark.timeout(60)
    def test_serving_during_a_fold_starts_no_second_fold(self, tmp_path,
                                                         monkeypatch):
        import repro.serving.store as store_mod

        monkeypatch.setattr(store_mod, "INDEX_FLUSH_ROWS", 8)
        index = VectorIndex(tmp_path / "idx", fingerprint="fp")
        provider = PersistentProvider(RandomProvider(dim=8, seed=0),
                                      EmbeddingStore(None, fingerprint="fp"),
                                      index)
        entered, release = self._pause_fold(monkeypatch)
        first = self._start(lambda: provider.encode_names(
            [f"first-{i}" for i in range(8)]))
        try:
            assert entered.wait(10.0)
            second = self._start(lambda: provider.encode_names(
                ["second-0", "second-1"]))
            # With the trigger guarded this returns at once; unguarded it
            # would block on the fold in flight and then fold again.
            second.join(timeout=5.0)
        finally:
            release.set()
            first.join(timeout=30.0)
            second.join(timeout=30.0)
        assert not first.is_alive() and not second.is_alive()
        stats = index.stats()
        assert stats["counters"]["flushes"] == 1
        assert stats["pending"] == 2 and "second-0" in index


class TestPendingView:
    """Queries share one stacked view of the pending buffer, which every
    change to the buffer must drop."""

    def test_query_finds_a_name_added_after_the_last_query(self, tmp_path):
        _, vectors, mapping = _world(300, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        index.add({"first": vectors[0] + 0.01})
        index.query(vectors[1], k=3)
        index.add({"second": vectors[2] + 0.01})
        [hits] = index.query(vectors[2] + 0.01, k=1)
        assert hits[0][0] == "second"

    def test_readding_a_pending_name_changes_its_score(self, tmp_path):
        _, vectors, _ = _world(10, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.add({"moving": vectors[0]})
        [[(name, score)]] = index.query(vectors[0], k=1)
        assert name == "moving" and score == pytest.approx(1.0, abs=1e-5)
        index.add({"moving": -vectors[0]})
        [[(name, score)]] = index.query(vectors[0], k=1)
        assert name == "moving" and score == pytest.approx(-1.0, abs=1e-5)

    def test_flush_and_build_drop_the_view(self, tmp_path):
        names, vectors, mapping = _world(60, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.add({"flushed": vectors[0]})
        index.query(vectors[0], k=1)
        assert index._pending_view is not None
        index.flush()
        assert index._pending_view is None
        index.add({"doomed": vectors[1]})
        index.query(vectors[1], k=1)
        index.build(mapping)
        assert index._pending_view is None
        [hits] = index.query(vectors[1], k=len(names) + 2)
        assert sorted(name for name, _ in hits) == sorted(names)

    def test_results_equal_a_restack_on_every_query(self, tmp_path):
        names, vectors, mapping = _world(400, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        queries = synthetic_queries(vectors, 12, seed=6)
        rng = np.random.default_rng(5)
        for step in range(12):
            if step % 3 == 0:
                shadowed = rng.choice(len(names), size=2, replace=False)
                index.add({f"new-{step}": rng.normal(size=8),
                           **{names[i]: rng.normal(size=8)
                              for i in shadowed}})
            cached = index.query(queries, k=7)
            index._pending_view = None
            assert cached == index.query(queries, k=7)

    @pytest.mark.timeout(60)
    def test_concurrent_adds_are_visible_to_the_next_query(self, tmp_path):
        """More threads than cores, switching every 10 µs: each query
        must see its own thread's add, which a stale view would miss."""
        index = VectorIndex(tmp_path, fingerprint="fp")
        workers = (os.cpu_count() or 1) + 2
        stop_at = time.monotonic() + 1.0
        added, failures = [], []

        def worker(seed):
            rng = np.random.default_rng(seed)
            count = 0
            try:
                while time.monotonic() < stop_at:
                    name, vector = f"w{seed}-{count}", rng.normal(size=16)
                    index.add({name: vector})
                    [hits] = index.query(vector, k=1)
                    if hits[0][0] != name:
                        failures.append((name, hits[0]))
                    count += 1
            except Exception as error:  # noqa: BLE001 — reported
                failures.append(error)
            added.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert index.stats()["pending"] == sum(added) > workers


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
