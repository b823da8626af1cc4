"""Distributed query serving: a pool of QueryEngine actors, each holding
a warm BM25Index handle (ST3 done properly — the reference reopens all
query-time state from disk per call and its author calls that slow,
bleve_pdf.go:482-484; here the manifest, footer indexes, posting/term
caches and doc row-group index live in actor memory across calls).

``search_many`` fans a query batch across the pool round-robin — the
single-node stand-in for a fleet of engine replicas behind a router;
at cluster scale the same actors are placed one-per-node against shared
index storage and the pool IS the serving tier.

Every replica and every shard pays for what one process holds.  On a
4-vCPU host, serving 600 ``query_head`` benchmark queries (seed 9,
7k docs) from one handle, a replica's RSS was: the Ray worker floor
78 MB, the engine import (numpy, pyarrow, pyarrow.parquet,
pyarrow.compute, the analyzers) +54 MB, the open handle (manifest,
parquet footers) +2 MB and its warm caches +19 MB — 153 MB in all,
down from 184 MB.  That difference was pandas (31 MB, 325 modules):
pyarrow's Arrow↔numpy converters (``Array.to_numpy``, ``pa.array``, a
Python scalar operand to ``pyarrow.compute``) go through its pandas
shim, which imports pandas on first use.  So serving converts through
buffers (``index/arrays.py``) and never imports pandas, ``ray.data``
or ``pyarrow.dataset``.

Nor does it import ``pyarrow.compute``, 7.4 MB of that engine import
in a replica (in a plain process on the same host the import fell from
+49.1 to +41.9 MB without it): ``Table.take`` / ``filter`` /
``sort_by`` and ``Array.cast`` import it, so posting and doc rows are
matched, sorted and gathered with numpy over the Arrow buffers.  The
warm caches hold each term as a few arrays per run (``query.py``'s
columnar term cache), not a dict of Python objects per block, and
every parquet read passes ``use_threads=False``, so a cold request
starts no Arrow thread pool.
"""

from __future__ import annotations

import ray

from .query import BM25Index, MatchSet, select_topk


def warm_handle(idx: BM25Index, queries: list[str], run) -> int:
    """Warm ``idx`` for ``queries``: load every query's analyzed terms in
    one ``postings`` read, so each postings row group those terms touch
    is read once and not once per query that first meets one of its
    terms, then ``run`` each query to fill the caches past the posting
    load.  Returns the number of terms cached."""
    idx.postings([t for q in queries for t in idx.query_terms(q)])
    for q in queries:
        run(q)
    return idx.cached_terms()


@ray.remote
class QueryEngine:
    """One serving replica: constructs the index handle once, then
    answers searches from warm caches.  dataclass results (MatchSet /
    Match) serialize as-is.

    Every replica pays for what its handle keeps, so the handle keeps
    little: per cached term its runs as columns (the encoded blobs in
    one buffer per kind with block offsets, and per-block arrays of
    first id, posting count and bound), and per decoded posting only
    its id and score (16 B), plus one (id, length) pair per doc whose
    length a decode has looked up (``BM25Index.doc_lengths``).
    Positions are never read for scoring; tf is decoded again when a
    reader asks.

    A small LRU RESULT cache sits in front of the scorer (every
    production engine's request cache): keyed by (index version, query,
    kwargs), where version = the manifest's built_at — so entries can
    never survive a reload that picked up appended segments or
    tombstones (reload also drops the map outright to free memory).
    Identical repeated queries — the head of every real query
    distribution — skip scoring entirely."""

    def __init__(self, index_dir: str, *, result_cache_size: int = 256):
        from collections import OrderedDict

        self.idx = BM25Index(index_dir)
        self._rc: "OrderedDict[tuple, MatchSet]" = OrderedDict()
        self._rc_size = int(result_cache_size)
        self.cache_stats = {"hits": 0, "misses": 0}

    def search(self, query: str, **kwargs) -> MatchSet:
        key = (self.idx.manifest.built_at, query,
               tuple(sorted(kwargs.items())))
        hit = self._rc.get(key)
        if hit is not None:
            self._rc.move_to_end(key)
            self.cache_stats["hits"] += 1
            return hit
        self.cache_stats["misses"] += 1
        out = self.idx.search(query, **kwargs)
        self._rc[key] = out
        if len(self._rc) > self._rc_size:
            self._rc.popitem(last=False)
        return out

    def result_cache_stats(self) -> dict:
        return dict(self.cache_stats, size=len(self._rc))

    def warm(self, queries: list[str]) -> int:
        """Pre-load term caches for a query set; returns #terms cached."""
        return warm_handle(self.idx, queries, lambda q: self.idx.search(
            q, max_results=1, with_spans=False))

    def reload(self) -> float:
        """Re-open the index handle — picks up appended segments and
        tombstones committed since construction (append/delete only
        ever ADD manifest-listed files, so a reload is always safe
        mid-serving).  Returns the manifest built_at.  The result
        cache is dropped: its version key already fences stale
        entries, clearing just returns the memory."""
        self.idx = BM25Index(self.idx.index_dir,
                             verify_checksums=self.idx.verify_checksums)
        self._rc.clear()
        return self.idx.manifest.built_at


@ray.remote
class ShardEngine:
    """One doc-range scoring shard for scatter-gather serving: a warm
    BM25Index handle OPENED WITH ITS DOC RANGE, which owns the range —
    ``topk`` scores only docs in [lo, hi), the posting READS touch only
    row groups whose [first_doc, last_doc] span meets the range and the
    scorer decodes only blocks that can hold an in-range doc, so at
    scale each shard's IO is ∝ its share of the long posting lists.
    df/idf stay global (a narrow term+n metadata read covers the pruned
    row groups), so scores remain bitwise-identical to unsharded
    TAAT."""

    def __init__(self, index_dir: str, lo: int, hi: int):
        self.idx = BM25Index(index_dir, doc_range=(int(lo), int(hi)))

    def topk(self, query: str, max_results: int):
        """(doc_ids, scores, in-range total_matches), TAAT."""
        return self.idx.topk(query, max_results)

    def warm(self, queries: list[str]) -> int:
        return warm_handle(self.idx, queries, lambda q: self.idx.topk(q, 1))

    def io_stats(self) -> dict:
        return dict(self.idx.io_stats)


def compute_doc_ranges(index_dir: str, n_shards: int) -> list[tuple[int, int]]:
    """Split the index's docID space into ``n_shards`` contiguous ranges
    of ~equal doc count, cut at the quantiles of the catalogs' doc ids
    (a read of the ``doc_id`` column only), so the ranges depend on the
    ids and not on the file layout.  Ranges cover all of int64 so
    appended segments with new id ranges still land in some shard."""
    import glob

    import numpy as np
    import pyarrow.parquet as pq

    from ..index.arrays import _np
    from ..state.manifest import IndexManifest

    m = IndexManifest.load(index_dir)
    dirs = [index_dir] + [f"{index_dir}/segments/{s['name']}"
                          for s in m.segments if s["name"] != "base"]
    files = [p for d in dirs for p in sorted(glob.glob(f"{d}/docs/*.parquet"))]
    if not files or n_shards <= 1:
        return [(-(1 << 62), 1 << 62)]
    ids = np.sort(np.concatenate([
        _np(pq.ParquetFile(p).read(columns=["doc_id"],
                                   use_threads=False)["doc_id"])
        for p in files]))
    if not ids.size:
        return [(-(1 << 62), 1 << 62)]
    cuts = {int(ids[ids.size * s // n_shards]) for s in range(1, n_shards)}
    bounds = sorted(cuts - {int(ids[0])})
    edges = [-(1 << 62)] + bounds + [1 << 62]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


class ShardedEngine:
    """Scatter-gather serving over doc-range shards (the reference's
    single bleve handle scaled out; SURVEY §2.6 T1 as a fan-out).

    Each query fans to every shard's ``topk`` (global idf — scores are
    bitwise-identical to unsharded TAAT, and the in-range totals add up
    to the exact total_matches), then the driver merges the K·shards
    candidates with ``select_topk`` — the selection every scorer uses —
    and hydrates only the final top-k through its own handle."""

    def __init__(self, index_dir: str, n_shards: int = 4,
                 num_cpus: float = 1.0):
        self.index_dir = index_dir
        self.ranges = compute_doc_ranges(index_dir, n_shards)
        self.shards = [
            ShardEngine.options(num_cpus=num_cpus).remote(index_dir, lo, hi)
            for lo, hi in self.ranges
        ]
        self._local = BM25Index(index_dir)  # hydration only (top-k reads)

    def warm(self, queries: list[str]) -> None:
        ray.get([s.warm.remote(queries) for s in self.shards])

    def search(self, query: str, max_results: int = 10,
               with_spans: bool = True) -> MatchSet:
        import time as _time

        t0 = _time.perf_counter()
        result = self.search_many([query], max_results, with_spans)[0]
        result.search_duration = _time.perf_counter() - t0
        return result

    def search_many(self, queries: list[str], max_results: int = 10,
                    with_spans: bool = True) -> list[MatchSet]:
        """Batch scoring: ALL (query × shard) calls are in flight at
        once — per-query barriers would leave shards idle while the
        slowest one finishes; results return in input order."""
        import numpy as np

        refs = [[s.topk.remote(q, max_results) for s in self.shards]
                for q in queries]
        flat = ray.get([r for row in refs for r in row])
        n_sh = len(self.shards)
        out: list[MatchSet] = []
        for qi, q in enumerate(queries):
            parts = flat[qi * n_sh:(qi + 1) * n_sh]
            ids, sc = select_topk(np.concatenate([p[0] for p in parts]),
                                  np.concatenate([p[1] for p in parts]),
                                  max_results)
            ms = MatchSet(total_matches=int(sum(p[2] for p in parts)))
            if ids.size:
                idx = self._local
                ms.matches = idx.hydrate(idx.query_terms(q), ids, sc,
                                         with_spans)
            out.append(ms)
        return out

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []


def make_engine_pool(index_dir: str, replicas: int = 2,
                     num_cpus: float = 1.0) -> list:
    """Spin up ``replicas`` QueryEngine actors over one index dir."""
    return [
        QueryEngine.options(num_cpus=num_cpus).remote(index_dir)
        for _ in range(replicas)
    ]


def search_many(
    pool_or_index_dir,
    queries: list[str],
    *,
    replicas: int = 2,
    **search_kwargs,
) -> list[MatchSet]:
    """Score a query batch across an engine pool; results in input order.

    Pass either an existing pool from ``make_engine_pool`` (reuse across
    batches — the normal serving shape) or an index dir (ephemeral pool,
    torn down on return)."""
    own_pool = isinstance(pool_or_index_dir, str)
    pool = (make_engine_pool(pool_or_index_dir, replicas)
            if own_pool else pool_or_index_dir)
    try:
        refs = [
            pool[i % len(pool)].search.remote(q, **search_kwargs)
            for i, q in enumerate(queries)
        ]
        return ray.get(refs)
    finally:
        if own_pool:
            for a in pool:
                ray.kill(a)
