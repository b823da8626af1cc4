"""Similarity search over an embedding column (training-data addenda).

* Brute-force cosine top-k — pipelines/queries.py:ann_cosine_topk
  (broadcast query matrix, numpy matmul per batch, partial top-k, driver
  merge).  Exact; the correctness baseline.
* LSH-bucketed cosine top-k — random-hyperplane signatures partition the
  base vectors into a PERSISTED bucket-partitioned parquet layout (the
  index); a query probes its own bucket plus all hamming≤1 neighbors
  (multi-probe), and candidates are scored INSIDE per-bucket tasks —
  only per-(bucket, query) top-k rows (O(k·probes), not O(candidates))
  reach the driver.  Recall < 1 by design; tested against brute force.
* IVF cosine top-k — k-means centroids trained on a deterministic
  sample (driver) and passed to the assignment tasks by value; base
  vectors live in a persisted cluster-partitioned layout; a query
  brute-forces only its ``n_probe`` nearest clusters, again scored
  in-task.

Both approximate variants are SQL-oracled: the hyperplanes / centroids
are deterministic parameters injected into the oracle SQL as literals,
so DuckDB independently recomputes assignment, probing and scoring
(see pipelines/oracles.py).
"""

from __future__ import annotations

from ..functions.spill import (BUCKET_COL, bucket_path, cached_dir,
                               file_key, spill_bucketed, spill_dir)

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd


def _hyperplanes(dim: int, nbits: int, seed: int = 42) -> np.ndarray:
    rng = np.random.RandomState(seed)
    h = rng.normal(size=(dim, nbits))
    return h / np.linalg.norm(h, axis=0, keepdims=True)


def _signs(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (m @ planes) > 0
    weights = (1 << np.arange(planes.shape[1], dtype=np.int64))
    return bits.astype(np.int64) @ weights


def _embed_matrix(col, dim: int) -> np.ndarray:
    """Offset-safe float64 matrix from a list<float> column."""
    emb = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(-1, dim)


def _read_queries(sf_dir: str, num_queries: int) -> tuple[np.ndarray, np.ndarray]:
    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", num_queries)],
    )
    if qt.num_rows == 0:             # empty corpus: no query vectors
        return np.array([], dtype=np.int64), np.zeros((0, 1))
    q_ids = qt["vec_id"].to_numpy()
    qm = np.stack([np.asarray(v, dtype=np.float64)
                   for v in qt["embedding"].to_pylist()])
    return q_ids, qm


def _assign_partitions(batch: pa.Table, *, params: np.ndarray, mode: str,
                       dim: int, exclude_below: int,
                       extra_cols: tuple[str, ...] = ()) -> pa.Table:
    """Embedding rows → (vec_id, embedding[, extra], __jb) rows with
    ``__jb`` the partition: LSH signs over ``params`` (dim × nbits
    hyperplanes) or the nearest of ``params``'s IVF centroids."""
    ids = batch["vec_id"].to_numpy()
    emb = batch["embedding"].combine_chunks()
    if isinstance(emb, pa.ChunkedArray):
        emb = emb.chunk(0)
    m = _embed_matrix(emb, dim)
    mask = ids >= exclude_below
    ids, m = ids[mask], m[mask]
    if mode == "lsh":
        parts = _signs(m, params)
    else:  # ivf: first-max argmax over centroid dots (scaling-invariant)
        parts = np.argmax(m @ params.T, axis=1)
    take = pa.array(np.nonzero(mask)[0], type=pa.int32())
    cols = {
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": emb.take(take),
    }
    for c in extra_cols:
        col = batch[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        cols[c] = col.take(take)
    cols[BUCKET_COL] = pa.array(parts, type=pa.int64())
    return pa.table(cols)


def build_partitioned_embeddings(
    sf_dir: str,
    out_dir: str,
    *,
    mode: str,
    params: np.ndarray,
    dim: int,
    exclude_below: int,
    extra_cols: tuple[str, ...] = (),
) -> None:
    """One map_batches pass assigns every base vector its partition and
    writes the PERSISTED partition-per-bucket layout — the ANN index.
    At scale this is built once and reused by every query batch; a
    failed build re-runs cheaply (single narrow pass, partitioned
    output).  The pass is a task map and not an actor pool: the
    parameters are small matrices, so there is nothing to build once
    per actor, and Ray Data hands an actor pool's constructor its
    arguments through the object store, from which a restarted actor
    could not rebuild them."""
    from ..functions.tables import read_parquet_nometa

    spill_bucketed(read_parquet_nometa(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", *extra_cols],
    ).map_batches(
        _assign_partitions,
        fn_kwargs=dict(params=params, mode=mode, dim=dim,
                       exclude_below=exclude_below, extra_cols=extra_cols),
        batch_format="pyarrow",
    ), None, out_dir)


_EMPTY_TOPK = pa.table({
    "query_id": pa.array([], type=pa.int64()),
    "vec_id": pa.array([], type=pa.int64()),
    "sim": pa.array([], type=pa.float64()),
    "rank": pa.array([], type=pa.int64()),
})

_EMPTY_PAIRS = pa.table({
    "vec_a": pa.array([], type=pa.int64()),
    "vec_b": pa.array([], type=pa.int64()),
    "cos": pa.array([], type=pa.float64()),
})


def _probe_topk(
    parts_dir: str,
    q_ids: np.ndarray,
    qn: np.ndarray,
    probe_sets: list[set[int]],
    dim: int,
    k: int,
) -> pa.Table:
    """Score probes inside per-partition tasks: each task reads ONE
    partition dir, scores it against exactly the queries that probe it,
    and returns that partition's per-query top-k (ordered by
    (round(sim,6) desc, vec_id asc) — the same key as the global merge,
    so per-partition top-k is an exact prefix filter).  The driver then
    merges O(k · probes) rows, never the candidate set."""
    all_probes = sorted(set().union(*probe_sets)) if probe_sets else []
    dirs = [b for b in all_probes if os.path.isdir(bucket_path(parts_dir, b))]
    bcast = ray.put((q_ids, qn, probe_sets))

    def score_partition(batch: pa.Table) -> pa.Table:
        q_ids_, qn_, probe_sets_ = ray.get(bcast)
        out_q, out_v, out_s = [], [], []
        for part in batch["part"].to_pylist():
            t = pq.read_table(bucket_path(parts_dir, part),
                              columns=["vec_id", "embedding"],
                              use_threads=False)
            if t.num_rows == 0:
                continue
            ids = t["vec_id"].to_numpy()
            m = _embed_matrix(t["embedding"], dim)
            mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
            for j, qid in enumerate(q_ids_):
                if part not in probe_sets_[j]:
                    continue
                sims6 = np.round(mn @ qn_[j], 6)
                top = np.lexsort((ids, -sims6))[:k]
                out_q += [int(qid)] * len(top)
                out_v += [int(x) for x in ids[top]]
                out_s += [float(x) for x in sims6[top]]
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    empty = pa.table({
        "query_id": pa.array([], type=pa.int64()),
        "vec_id": pa.array([], type=pa.int64()),
        "sim": pa.array([], type=pa.float64()),
        "rank": pa.array([], type=pa.int64()),
    })
    if not dirs:
        return empty
    cand = (
        rd.from_items([{"part": b} for b in dirs], override_num_blocks=len(dirs))
        .map_batches(score_partition, batch_format="pyarrow", batch_size=1)
        .to_pandas()
    )
    if not len(cand):
        return empty
    # tiny driver merge: same ordering key as the per-partition selection
    qs = cand["query_id"].to_numpy()
    vs = cand["vec_id"].to_numpy()
    ss = cand["sim"].to_numpy()
    out_q, out_v, out_s, out_r = [], [], [], []
    for qid in sorted(set(int(x) for x in qs)):
        sel = qs == qid
        order = np.lexsort((vs[sel], -ss[sel]))[:k]
        for r, oi in enumerate(order, start=1):
            out_q.append(qid)
            out_v.append(int(vs[sel][oi]))
            out_s.append(float(ss[sel][oi]))
            out_r.append(r)
    return pa.table({
        "query_id": pa.array(out_q, type=pa.int64()),
        "vec_id": pa.array(out_v, type=pa.int64()),
        "sim": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(out_r, type=pa.int64()),
    })


def lsh_probe_sets(q_buckets: np.ndarray, nbits: int) -> list[set[int]]:
    """Multi-probe: own bucket + each single-bit flip (hamming ≤ 1)."""
    probe_sets = []
    for qb in q_buckets:
        probes = {int(qb)}
        for b in range(nbits):
            probes.add(int(qb) ^ (1 << b))
        probe_sets.append(probes)
    return probe_sets


def ann_lsh_topk(
    sf_dir: str,
    *,
    num_queries: int = 5,
    k: int = 10,
    nbits: int = 8,
    seed: int = 42,
) -> pa.Table:
    """Approximate cosine top-k via hyperplane LSH + multi-probe over a
    persisted bucket-partitioned index (see module docstring)."""
    q_ids, qm = _read_queries(sf_dir, num_queries)
    if q_ids.size == 0:              # empty corpus
        return _EMPTY_TOPK
    dim = qm.shape[1]
    planes = _hyperplanes(dim, nbits, seed)
    qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    probe_sets = lsh_probe_sets(_signs(qm, planes), nbits)

    with spill_dir("pdfsearch_lsh_") as index_dir:
        build_partitioned_embeddings(
            sf_dir, f"{index_dir}/parts", mode="lsh", params=planes,
            dim=dim, exclude_below=num_queries,
        )
        return _probe_topk(f"{index_dir}/parts", q_ids, qn, probe_sets,
                           dim, k)


def embedding_dup_pairs(
    sf_dir: str,
    *,
    threshold: float = 0.4,
    batch_size: int = 4096,
) -> pa.Table:
    """Embedding-cosine near-duplicate pairs: (vec_a < vec_b,
    round(cos, 6) ≥ threshold) over the whole embeddings table — the
    exact baseline of embedding-space dedup (SQL-oracled).

    Shape: the normalized matrix is broadcast once (``ray.put``; the
    "small side" — embeddings are ~dim×4 bytes/row); each batch computes
    its rows × all columns block of the similarity matrix and emits only
    its above-threshold pairs (a < b dedupes the symmetric half).  The
    result is O(near-dup mass).  At 10^12-vector scale the broadcast
    side no longer fits: the LSH/IVF partitioned layouts above become
    the candidate prefilter and this kernel verifies bucket-local pairs
    — same per-batch math, partitioned candidates."""
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    if t.num_rows == 0:              # empty corpus: no pairs
        return _EMPTY_PAIRS
    ids_all = t["vec_id"].to_numpy()
    dim = len(t["embedding"][0])
    m = _embed_matrix(t["embedding"], dim)
    mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    ref = ray.put((ids_all, mn))

    def pairs(batch: pa.Table) -> pa.Table:
        ids_all_, mn_ = ray.get(ref)
        ids = batch["vec_id"].to_numpy()
        bm = _embed_matrix(batch["embedding"], dim)
        bn = bm / np.maximum(np.linalg.norm(bm, axis=1, keepdims=True), 1e-12)
        s = np.round(bn @ mn_.T, 6)  # (batch, all)
        lt = ids[:, None] < ids_all_[None, :]
        hit = (s >= threshold) & lt
        r, c = np.nonzero(hit)
        return pa.table({
            "vec_a": pa.array(ids[r], type=pa.int64()),
            "vec_b": pa.array(ids_all_[c], type=pa.int64()),
            "cos": pa.array(s[r, c], type=pa.float64()),
        })

    from ..functions.tables import read_parquet_nometa

    out = (
        read_parquet_nometa(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
        .map_batches(pairs, batch_format="pyarrow", batch_size=batch_size)
        .to_pandas()
        .sort_values(["vec_a", "vec_b"])
    )
    return pa.table({
        "vec_a": pa.array(out["vec_a"].astype("int64").tolist(), type=pa.int64()),
        "vec_b": pa.array(out["vec_b"].astype("int64").tolist(), type=pa.int64()),
        "cos": pa.array(out["cos"].tolist(), type=pa.float64()),
    })


def embedding_dup_pairs_lsh(
    sf_dir: str,
    *,
    threshold: float = 0.4,
    n_bands: int = 4,
    nbits: int = 6,
    seed: int = 9,
    max_bucket: int = 4096,
) -> pa.Table:
    """Embedding near-dup pairs WITHOUT the all-pairs matrix — the scale
    path the exact ``embedding_dup_pairs`` baseline documents (round 4):

    1. every vector fans out to ``n_bands`` band rows; its bucket in a
       band is the sign pattern over that band's ``nbits`` hyperplanes
       (banding = the MinHash-LSH trick in cosine space: a pair is a
       candidate if it collides in ANY band);
    2. one task per (band, bucket) group runs the exact pair kernel
       within its bucket only — candidates are O(Σ bucket²), never N²;
       buckets larger than ``max_bucket`` are skipped entirely (the
       hot-bucket cap, same rule as minhash_lsh_dedup — a bucket that
       big means the band carries no signal for those rows);
    3. pairs dedupe across bands with one distinct pass (a colliding
       pair may be found in several bands); output is
       (vec_a < vec_b, round(cos, 6) ≥ threshold), sorted.

    Recall < 1 by design (a near-dup pair missing every band is lost);
    the SQL oracle recomputes the SAME algorithm — inlined hyperplanes,
    band buckets, the cap, candidate generation and cosine verify — so
    the driver hash-checks algorithm fidelity, while
    tests/test_dedup_lsh_pairs.py measures recall against the exact
    baseline."""
    import pyarrow.compute as pc

    t0 = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["embedding"])
    if t0.num_rows == 0:             # empty corpus: no pairs
        return _EMPTY_PAIRS
    dim = len(t0["embedding"][0])
    del t0
    planes = _hyperplanes(dim, n_bands * nbits, seed)
    planes_ref = ray.put(planes)

    def fanout(batch: pa.Table) -> pa.Table:
        planes_ = ray.get(planes_ref)
        ids = batch["vec_id"].to_numpy().astype(np.int64)
        m = _embed_matrix(batch["embedding"], dim)
        bits = (m @ planes_) > 0  # (n, n_bands*nbits)
        weights = (1 << np.arange(nbits, dtype=np.int64))
        n = len(ids)
        idx = np.repeat(np.arange(n), n_bands)
        bands = np.tile(np.arange(n_bands, dtype=np.int64), n)
        buckets = np.empty(n * n_bands, dtype=np.int64)
        for b_ in range(n_bands):
            sl = bits[:, b_ * nbits:(b_ + 1) * nbits]
            buckets[b_::n_bands] = sl.astype(np.int64) @ weights
        emb = batch["embedding"].combine_chunks() \
            if isinstance(batch["embedding"], pa.ChunkedArray) \
            else batch["embedding"]
        return pa.table({
            # single group key so the groupby shuffle has one column
            "bb": pa.array(bands * (1 << nbits) + buckets,
                           type=pa.int64()),
            "vec_id": pa.array(ids[idx], type=pa.int64()),
            "embedding": emb.take(pa.array(idx, type=pa.int64())),
        })

    def bucket_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table({
            "vec_a": pa.array([], type=pa.int64()),
            "vec_b": pa.array([], type=pa.int64()),
            "cos": pa.array([], type=pa.float64()),
        })
        n = g.num_rows
        if n < 2 or n > max_bucket:
            return empty  # hot-bucket cap: no signal in this band
        ids = g["vec_id"].to_numpy().astype(np.int64)
        m = _embed_matrix(g["embedding"], dim)
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                            1e-12)
        s = np.round(mn @ mn.T, 6)
        lt = ids[:, None] < ids[None, :]
        hit = (s >= threshold) & lt
        r, c = np.nonzero(hit)
        if r.size == 0:
            return empty
        return pa.table({
            "vec_a": pa.array(ids[r], type=pa.int64()),
            "vec_b": pa.array(ids[c], type=pa.int64()),
            "cos": pa.array(s[r, c], type=pa.float64()),
        })

    from ..functions.tables import read_parquet_nometa

    cand = (
        read_parquet_nometa(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
        .map_batches(fanout, batch_format="pyarrow")
        .groupby("bb")
        .map_groups(bucket_pairs, batch_format="pyarrow")
        .to_pandas()
    )
    # cross-band dedup: result is O(near-dup mass), tiny by contract
    cand = cand.drop_duplicates(["vec_a", "vec_b"]) \
        .sort_values(["vec_a", "vec_b"])
    return pa.table({
        "vec_a": pa.array(cand["vec_a"].astype("int64").tolist(),
                          type=pa.int64()),
        "vec_b": pa.array(cand["vec_b"].astype("int64").tolist(),
                          type=pa.int64()),
        "cos": pa.array(cand["cos"].tolist(), type=pa.float64()),
    })


# ---------------------------------------------------------------- IVF


def ivf_layout_cached(
    sf_dir: str,
    *,
    n_clusters: int,
    num_queries: int = 0,
    train_rows: int = 2048,
    iters: int = 5,
    seed: int = 7,
    exclude_below: int = 0,
    extra_cols: tuple[str, ...] = (),
) -> tuple[np.ndarray, str]:
    """Return ``(centroids, parts_dir)`` for the IVF cluster-partitioned
    layout of ``sf_dir``'s embeddings, building it AT MOST ONCE per
    (input fingerprint, params) and reusing it across calls AND
    processes.  This is the 100 TB shape: the index layout is a
    build-once artifact (like the fulltext index), not a per-query cost.

    The cache key fingerprints the source parquet (abspath, size,
    mtime_ns) plus every model/layout parameter, so a changed input or
    knob gets a fresh layout and identical inputs share one.  Builds are
    atomic (``spill.cached_dir``); a concurrent loser just adopts the
    winner's directory.  Cache root follows the spill knob
    (``$PDFSEARCH_SPILL_ROOT``, else the system tempdir) — on a real
    cluster that is the shared-storage mount every task can read."""
    def build(out: str) -> None:
        cents = ivf_centroids(sf_dir, num_queries=num_queries,
                              n_clusters=n_clusters, train_rows=train_rows,
                              iters=iters, seed=seed)
        build_partitioned_embeddings(
            sf_dir, f"{out}/parts", mode="ivf", params=cents,
            dim=cents.shape[1], exclude_below=exclude_below,
            extra_cols=extra_cols,
        )
        np.save(f"{out}/centroids.npy", cents)

    # "jb": the layout's bucket directories are ``__jb=`` (spill.py's
    # layout), so a cache written with the older ``part=`` names is
    # never adopted
    cdir = cached_dir("pdfsearch_ivf", (
        *file_key(f"{sf_dir}/embeddings.parquet"),
        n_clusters, num_queries, train_rows, iters, seed,
        exclude_below, tuple(extra_cols), "jb",
    ), "centroids.npy", build)
    return np.load(f"{cdir}/centroids.npy"), f"{cdir}/parts"


def _kmeans(train: np.ndarray, n_clusters: int, iters: int,
            seed: int) -> np.ndarray:
    """Plain Lloyd k-means on a (small, sampled) training matrix —
    deterministic init by seeded choice; runs on the driver ("train on a
    sample, broadcast the model")."""
    rng = np.random.RandomState(seed)
    idx = rng.choice(train.shape[0], size=min(n_clusters, train.shape[0]),
                     replace=False)
    cents = train[idx].copy()
    for _ in range(iters):
        sims = train @ cents.T  # rows normalized → cosine
        assign = np.argmax(sims, axis=1)
        for c in range(cents.shape[0]):
            members = train[assign == c]
            if len(members):
                m = members.mean(axis=0)
                n = np.linalg.norm(m)
                if n > 0:
                    cents[c] = m / n
    return cents


def ivf_centroids(
    sf_dir: str,
    *,
    num_queries: int = 5,
    n_clusters: int = 16,
    train_rows: int = 2048,
    iters: int = 5,
    seed: int = 7,
) -> np.ndarray:
    """Deterministic IVF model: k-means over the first ``train_rows``
    base vectors (normalized).  Shared by the pipeline AND the SQL
    oracle (which inlines the resulting centroids as literals — the
    training is shared, assignment/probe/scoring are independently
    recomputed by DuckDB)."""
    tt = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", ">=", num_queries),
                 ("vec_id", "<", num_queries + train_rows)],
    )
    tm = np.stack([np.asarray(v, dtype=np.float64)
                   for v in tt["embedding"].to_pylist()])
    tm = tm / np.maximum(np.linalg.norm(tm, axis=1, keepdims=True), 1e-12)
    return _kmeans(tm, n_clusters, iters, seed)


def ivf_probe_sets(qn: np.ndarray, cents: np.ndarray,
                   n_probe: int) -> list[set[int]]:
    """Deterministic probe ranking: (-dot, cluster-id) lexicographic —
    ties (measure-zero with real data) break toward the smaller id,
    matching the SQL oracle's ORDER BY dot DESC, c ASC."""
    probe_sets: list[set[int]] = []
    for row in qn @ cents.T:
        order = np.lexsort((np.arange(len(row)), -row))[:n_probe]
        probe_sets.append({int(c) for c in order})
    return probe_sets


def ann_ivf_topk(
    sf_dir: str,
    *,
    num_queries: int = 5,
    k: int = 10,
    n_clusters: int = 16,
    n_probe: int = 4,
    train_rows: int = 2048,
    iters: int = 5,
    seed: int = 7,
    index_dir: str | None = None,
) -> pa.Table:
    """Approximate cosine top-k via IVF over a persisted
    cluster-partitioned index; probes scored in-task (module docstring)."""
    q_ids, qm = _read_queries(sf_dir, num_queries)
    if q_ids.size == 0:              # empty corpus
        return _EMPTY_TOPK
    dim = qm.shape[1]
    qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    if index_dir is None:
        # build-once cached layout (fingerprint-keyed, shared across
        # calls and processes) — per-query cost is the probe pass only
        cents, parts = ivf_layout_cached(
            sf_dir, n_clusters=n_clusters, num_queries=num_queries,
            train_rows=train_rows, iters=iters, seed=seed,
            exclude_below=num_queries,
        )
        probe_sets = ivf_probe_sets(qn, cents, n_probe)
        return _probe_topk(parts, q_ids, qn, probe_sets, dim, k)
    cents = ivf_centroids(sf_dir, num_queries=num_queries,
                          n_clusters=n_clusters, train_rows=train_rows,
                          iters=iters, seed=seed)
    probe_sets = ivf_probe_sets(qn, cents, n_probe)
    if not os.path.isdir(f"{index_dir}/parts"):
        build_partitioned_embeddings(
            sf_dir, f"{index_dir}/parts", mode="ivf", params=cents,
            dim=dim, exclude_below=num_queries,
        )
    return _probe_topk(f"{index_dir}/parts", q_ids, qn, probe_sets, dim, k)


def semantic_dedup(
    sf_dir: str,
    *,
    eps: float = 0.35,
    n_clusters: int = 16,
) -> rd.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    near-duplicate pruning in embedding space — k-means-cluster the
    corpus, then WITHIN each cluster order members by similarity to
    their centroid (the paper keeps low-centroid-similarity examples)
    and drop any member whose cosine to an EARLIER-ranked kept-or-not
    member reaches ``eps``.  Complements the exact/LSH pair finders
    above: those emit duplicate PAIRS; this emits the per-vector
    keep/drop decision a curation pipeline consumes directly.

    Ray shape (the 100 TB path): the cluster layout is the build-once
    ``ivf_layout_cached`` artifact (atomic, fingerprint-keyed, shared
    with ann_ivf/knn) — the ONE shuffle happened at layout build.  The
    decision pass is a single job over partition ids: each task reads
    only ITS cluster's members, computes the local (members × members)
    cosine block with a triangular mask, and emits per-member verdicts
    — O(Σ cluster²) work, zero all-to-all, O(1) driver state.  The
    paper's own scaling knob applies verbatim: n_clusters grows with N
    so per-cluster blocks stay bounded (they use 50k clusters at
    LAION-440M scale).

    Determinism: sims and centroid-sims round to 6 dp, the in-cluster
    rank orders by (cent_sim DESC, vec_id ASC) — both reproduced
    bit-for-bit by the DuckDB oracle (oracles.semantic_dedup_sql),
    which retrains nothing: it inlines the shared centroids and
    independently recomputes assignment, ranking, the pairwise sims
    and the keep rule."""
    if pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows == 0:
        return rd.from_arrow(pa.table({
            "vec_id": pa.array([], type=pa.int64()),
            "cluster": pa.array([], type=pa.int64()),
            "cent_sim": pa.array([], type=pa.float64()),
            "keep": pa.array([], type=pa.bool_()),
        }))
    cents, parts_dir = ivf_layout_cached(
        sf_dir, n_clusters=n_clusters, exclude_below=0,
    )
    dim = cents.shape[1]
    cents_ref = ray.put(cents)
    have_parts = [p for p in range(n_clusters)
                  if os.path.isdir(bucket_path(parts_dir, p))]

    def decide(batch: pa.Table) -> pa.Table:
        cents_ = ray.get(cents_ref)
        out_id, out_cl, out_cs, out_keep = [], [], [], []
        for part in batch["part"].to_pylist():
            p = int(part)
            mt = pq.read_table(bucket_path(parts_dir, p),
                               columns=["vec_id", "embedding"],
                               use_threads=False)
            if mt.num_rows == 0:
                continue
            ids = mt["vec_id"].to_numpy().astype(np.int64)
            m = _embed_matrix(mt["embedding"], dim)
            mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                                1e-12)
            csim = np.round(mn @ cents_[p], 6)
            order = np.lexsort((ids, -csim))  # cent_sim desc, vec_id asc
            mo = mn[order]
            s = np.round(mo @ mo.T, 6)
            # triangular mask: member i only sees earlier-ranked j < i
            s[np.triu(np.ones(s.shape, dtype=bool))] = -2.0
            keep_o = s.max(axis=1) < eps if len(ids) > 1 else \
                np.ones(1, dtype=bool)
            keep = np.empty(len(ids), dtype=bool)
            keep[order] = keep_o
            out_id.append(ids)
            out_cl.append(np.full(len(ids), p, dtype=np.int64))
            out_cs.append(csim)
            out_keep.append(keep)
        if not out_id:
            return pa.table({
                "vec_id": pa.array([], type=pa.int64()),
                "cluster": pa.array([], type=pa.int64()),
                "cent_sim": pa.array([], type=pa.float64()),
                "keep": pa.array([], type=pa.bool_()),
            })
        return pa.table({
            "vec_id": pa.array(np.concatenate(out_id)),
            "cluster": pa.array(np.concatenate(out_cl)),
            "cent_sim": pa.array(np.concatenate(out_cs),
                                 type=pa.float64()),
            "keep": pa.array(np.concatenate(out_keep)),
        })

    return (
        rd.from_items([{"part": p} for p in have_parts])
        .map_batches(decide, batch_format="pyarrow", batch_size=1)
    )
