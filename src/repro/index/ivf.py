"""IVF-style coarse clustering in pure numpy.

The retrieval tier (:mod:`repro.index`) partitions each shard's vectors
into ``nlist`` coarse clusters so a query only scans the ``nprobe``
clusters whose centroids lie nearest — the classic inverted-file (IVF)
trade of recall for speed.  Clustering is a small, deterministic k-means:
k-means++-style seeding from a seeded :func:`numpy.random.default_rng`
Generator, a bounded number of Lloyd iterations, and a fixed iteration
order, so rebuilding the same shard from the same rows always produces
the same layout (bit-exact manifests across processes).

Vectors are expected L2-normalised (the index stores cosine geometry);
centroids are re-normalised after every update so centroid similarity is
a faithful proxy for member similarity.
"""

from __future__ import annotations

import numpy as np

#: Lloyd iterations; coarse quantisation converges fast and exactness is
#: irrelevant (probing is what decides recall, not cluster optimality).
DEFAULT_ITERATIONS = 8

#: Rows above which k-means trains on a deterministic subsample; the
#: final assignment pass still covers every row.
TRAIN_SAMPLE_CAP = 16_384


def _normalise(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, 1e-12)


def _seed_centroids(vectors: np.ndarray, nlist: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding: spread the initial centroids out.

    Each pick after the first makes the draw ``rng.choice(count,
    p=distances / total)`` makes — the same float64 cdf, normalised by
    its last entry, searched with one ``rng.random()`` — without
    ``choice``'s per-call validation of ``p``, so the picks and the
    generator's state match it exactly.
    """
    count = vectors.shape[0]
    first = int(rng.integers(count))
    chosen = [first]
    # Squared cosine distance to the nearest chosen centroid so far.
    distances = 1.0 - vectors @ vectors[first]
    for _ in range(1, nlist):
        distances = np.maximum(distances, 0.0)
        total = float(distances.sum())
        if total <= 0.0:
            # All remaining rows coincide with a centroid; fill uniformly.
            pick = int(rng.integers(count))
        else:
            cdf = np.cumsum(distances / total, dtype=np.float64)
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
        chosen.append(pick)
        distances = np.minimum(distances, 1.0 - vectors @ vectors[pick])
    return vectors[chosen].copy()


def coarse_cluster(vectors: np.ndarray, nlist: int, seed: int = 0,
                   iterations: int = DEFAULT_ITERATIONS
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Cluster L2-normalised ``vectors`` into at most ``nlist`` cells.

    Returns ``(centroids, assignments)``: a ``(k, dim)`` float32 centroid
    matrix (``k <= nlist``, unit rows) and a length-``n`` int64 vector of
    cluster ids.  Deterministic for a fixed ``(vectors, nlist, seed)``.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    count = vectors.shape[0]
    if count == 0:
        raise ValueError("cannot cluster an empty vector set")
    nlist = max(1, min(int(nlist), count))
    if nlist == 1:
        centroid = _normalise(vectors.mean(axis=0, keepdims=True))
        return centroid.astype(np.float32), np.zeros(count, dtype=np.int64)

    rng = np.random.default_rng(seed)
    if count > TRAIN_SAMPLE_CAP:
        sample = rng.choice(count, size=TRAIN_SAMPLE_CAP, replace=False)
        sample.sort()
        train = vectors[sample]
    else:
        train = vectors
    centroids = _seed_centroids(train, nlist, rng)
    dim = train.shape[1]
    # Flat (cell, column) slot of each element of ``train``, row-major.
    columns = np.arange(dim)
    for _ in range(max(1, iterations)):
        # Cosine assignment: nearest centroid = highest dot product.
        assignments = np.argmax(train @ centroids.T, axis=1)
        # One scatter-add sums each cell's rows in row order, the order
        # ``mean(axis=0)`` adds them in, so the means are bit-identical.
        sums = np.zeros(nlist * dim, dtype=np.float32)
        np.add.at(sums, (assignments[:, None] * dim + columns).ravel(),
                  train.ravel())
        counts = np.bincount(assignments, minlength=nlist)
        means = sums.reshape(nlist, dim) / np.maximum(counts, 1)[:, None]
        updated = 0
        for cell in np.flatnonzero(counts == 0):
            # Re-seed an empty cell on the row farthest from its
            # centroid, keeping all nlist cells populated.  Cells below
            # it already hold their means, cells above it their old
            # centroids, as when cells were updated one by one.
            centroids[updated:cell] = means[updated:cell]
            similarity = (train * centroids[assignments]).sum(axis=1)
            centroids[cell] = train[int(np.argmin(similarity))]
            updated = cell + 1
        centroids[updated:] = means[updated:]
        centroids = _normalise(centroids).astype(np.float32)
    assignments = np.argmax(vectors @ centroids.T, axis=1).astype(np.int64)
    return centroids, assignments


__all__ = ["DEFAULT_ITERATIONS", "TRAIN_SAMPLE_CAP", "coarse_cluster"]
