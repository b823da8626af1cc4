"""QueryEngine actor pool must answer identically to a driver-side
BM25Index, keep state warm across calls, and preserve input order."""

SRC = "/root/testdata/sf0.001/documents.parquet"

QUERIES = ["data processing pipeline", "stream window", "query engine",
           "zzznope", "", "processing data"]


def test_engine_pool_matches_driver(ray_session, tmp_path):
    import ray

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.engine import make_engine_pool, search_many
    from pdfsearch_ray.pipelines.query import BM25Index

    d = str(tmp_path / "idx")
    build_index(SRC, d, analyzer="en", num_buckets=8)
    local = BM25Index(d)
    expected = [local.search(q, max_results=10, with_spans=True)
                for q in QUERIES]

    pool = make_engine_pool(d, replicas=2)
    try:
        got = search_many(pool, QUERIES, max_results=10, with_spans=True)
        assert len(got) == len(QUERIES)
        for e, g, q in zip(expected, got, QUERIES):
            assert g.total_matches == e.total_matches, q
            assert [(m.doc_id, round(m.score, 12)) for m in g.matches] == \
                   [(m.doc_id, round(m.score, 12)) for m in e.matches], q
            assert [m.spans for m in g.matches] == [m.spans for m in e.matches]
        # warm() returns a growing term cache — state persists in-actor
        n1 = ray.get(pool[0].warm.remote(["engine"]))
        n2 = ray.get(pool[0].warm.remote(["engine", "window"]))
        assert n2 >= n1
    finally:
        for a in pool:
            ray.kill(a)


def test_search_many_ephemeral_pool(ray_session, tmp_path):
    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.engine import search_many
    from pdfsearch_ray.pipelines.query import BM25Index

    d = str(tmp_path / "idx")
    build_index(SRC, d, analyzer="en", num_buckets=8)
    got = search_many(d, ["data", "engine"], replicas=1, max_results=5)
    local = BM25Index(d)
    for g, q in zip(got, ["data", "engine"]):
        e = local.search(q, max_results=5)
        assert [m.doc_id for m in g.matches] == [m.doc_id for m in e.matches]


def test_engine_reload_picks_up_append_and_delete(ray_session, tmp_path):
    """A serving actor reload() sees segments/tombstones committed after
    it was constructed."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (
        append_index,
        build_index,
        delete_docs,
    )
    from pdfsearch_ray.pipelines.engine import make_engine_pool
    from pdfsearch_ray.pipelines.query import BM25Index

    t = pq.read_table(SRC)
    cut = int(t.num_rows * 0.7)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(t.slice(0, cut)), d, analyzer="en",
                num_buckets=8, lang_col="lang")
    pool = make_engine_pool(d, replicas=1)
    try:
        before = ray.get(pool[0].search.remote(
            "data processing pipeline", max_results=5, with_spans=False))
        append_index(rd.from_arrow(t.slice(cut)), d, lang_col="lang")
        victim = before.matches[0].doc_id
        delete_docs(d, doc_ids=[victim])
        # stale handle still serves the old view
        stale = ray.get(pool[0].search.remote(
            "data processing pipeline", max_results=5, with_spans=False))
        assert victim in [m.doc_id for m in stale.matches]
        ray.get(pool[0].reload.remote())
        fresh = ray.get(pool[0].search.remote(
            "data processing pipeline", max_results=5, with_spans=False))
        local = BM25Index(d)
        want = local.search("data processing pipeline", max_results=5,
                            with_spans=False)
        assert [(m.doc_id, m.score) for m in fresh.matches] == [
            (m.doc_id, m.score) for m in want.matches]
        assert victim not in [m.doc_id for m in fresh.matches]
    finally:
        for a in pool:
            ray.kill(a)


def test_sharded_engine_rank_identity_two_pool_sizes(ray_session, tmp_path):
    """Scatter-gather doc-range sharding must reproduce unsharded TAAT
    ranks, scores, spans AND exact total_matches at any shard count."""
    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.engine import ShardedEngine, compute_doc_ranges
    from pdfsearch_ray.pipelines.query import BM25Index

    d = str(tmp_path / "idx")
    build_index(SRC, d, analyzer="en", num_buckets=8)
    local = BM25Index(d)
    expected = {q: local.search(q, max_results=10, with_spans=True,
                                method="taat") for q in QUERIES}
    for n_shards in (2, 5):
        ranges = compute_doc_ranges(d, n_shards)
        # every shard gets docs, however few catalog row groups there are
        assert len(ranges) == n_shards
        assert ranges[0][0] < 0 and ranges[-1][1] > (1 << 61)
        for (a, b), (c, e) in zip(ranges, ranges[1:]):
            assert b == c, "ranges must tile the id space"
        eng = ShardedEngine(d, n_shards=n_shards, num_cpus=0.25)
        try:
            for q in QUERIES:
                g = eng.search(q, max_results=10, with_spans=True)
                e = expected[q]
                assert g.total_matches == e.total_matches, (q, n_shards)
                assert [(m.doc_id, m.score) for m in g.matches] == \
                       [(m.doc_id, m.score) for m in e.matches], (q, n_shards)
                assert [m.spans for m in g.matches] == \
                       [m.spans for m in e.matches], (q, n_shards)
        finally:
            eng.shutdown()


def test_sharded_engine_sees_appended_segment(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import append_index, build_index
    from pdfsearch_ray.pipelines.engine import ShardedEngine
    from pdfsearch_ray.pipelines.query import BM25Index

    t = pq.read_table(SRC)
    cut = int(t.num_rows * 0.6)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(t.slice(0, cut)), d, analyzer="en",
                num_buckets=8, lang_col="lang")
    append_index(rd.from_arrow(t.slice(cut)), d, lang_col="lang")
    local = BM25Index(d)
    eng = ShardedEngine(d, n_shards=3, num_cpus=0.25)
    try:
        for q in ("data processing pipeline", "information"):
            e = local.search(q, max_results=10, method="taat")
            g = eng.search(q, max_results=10)
            assert g.total_matches == e.total_matches
            assert [(m.doc_id, m.score) for m in g.matches] == \
                   [(m.doc_id, m.score) for m in e.matches]
    finally:
        eng.shutdown()


def test_sharded_engine_respects_tombstones(ray_session, tmp_path):
    """Doc-range shards must exclude deleted docs exactly like the
    single-process TAAT path (both apply the handle's one live
    predicate)."""
    from pdfsearch_ray.pipelines.build import build_index, delete_docs
    from pdfsearch_ray.pipelines.engine import ShardedEngine
    from pdfsearch_ray.pipelines.query import BM25Index

    d = str(tmp_path / "idx")
    build_index(SRC, d, analyzer="en", num_buckets=8)
    base = BM25Index(d).search("data processing pipeline",
                               max_results=5, with_spans=False)
    victim = base.matches[0].doc_id
    delete_docs(d, doc_ids=[victim])
    local = BM25Index(d)
    eng = ShardedEngine(d, n_shards=3, num_cpus=0.25)
    try:
        e = local.search("data processing pipeline", max_results=5,
                         with_spans=False, method="taat")
        g = eng.search("data processing pipeline", max_results=5,
                       with_spans=False)
        assert victim not in [m.doc_id for m in g.matches]
        assert [(m.doc_id, m.score) for m in g.matches] == \
               [(m.doc_id, m.score) for m in e.matches]
        assert g.total_matches == e.total_matches
    finally:
        eng.shutdown()


def test_sharded_search_many_order_and_identity(ray_session, tmp_path):
    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.engine import ShardedEngine

    d = str(tmp_path / "idx")
    build_index(SRC, d, analyzer="en", num_buckets=8)
    eng = ShardedEngine(d, n_shards=2, num_cpus=0.25)
    try:
        batch = eng.search_many(list(QUERIES), max_results=10)
        assert len(batch) == len(QUERIES)
        for q, got in zip(QUERIES, batch):
            one = eng.search(q, max_results=10)
            assert got.total_matches == one.total_matches, q
            assert [(m.doc_id, m.score) for m in got.matches] == \
                   [(m.doc_id, m.score) for m in one.matches], q
            assert [m.spans for m in got.matches] == \
                   [m.spans for m in one.matches], q
    finally:
        eng.shutdown()


def test_shard_reads_prune_to_doc_range(ray_session, tmp_path):
    """Round 4: a doc-range shard handle must READ fewer posting row
    groups than a full-range handle (IO ∝ slice for long posting
    lists), while keeping GLOBAL df/idf — scores bitwise-identical."""
    import numpy as np
    import ray

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.engine import (
        ShardedEngine,
        compute_doc_ranges,
    )
    from pdfsearch_ray.pipelines.query import BM25Index

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    d = str(tmp_path / "idx")
    # tiny blocks + tiny row groups over a 4x-replicated corpus: long
    # per-term runs make interior row groups doc-span-narrow (the
    # at-scale shape); only run-boundary row groups stay wide
    t = pq.read_table(SRC)
    parts = []
    for rep in range(4):
        ids = pa.array((t["doc_id"].to_numpy() + rep * 1_000_000)
                       .astype("int64"))
        parts.append(t.set_column(
            t.schema.get_field_index("doc_id"), "doc_id", ids))
    big = pa.concat_tables(parts)
    build_index(rd.from_arrow(big), d, analyzer="en", num_buckets=4,
                block_size=8, row_group_size=8)
    q = "data processing pipeline"
    full = BM25Index(d)
    want = full.search(q, max_results=10, with_spans=False, method="taat")
    full_rg = full.io_stats["postings_row_groups_read"]
    assert full_rg > 8  # the setup really produced many row groups

    # four explicit doc-range handles tiling the replicated id space
    edges = [-(1 << 62), 1_000_000, 2_000_000, 3_000_000, 1 << 62]
    ranges = list(zip(edges, edges[1:]))
    per_shard = []
    merged = []
    for lo, hi in ranges:
        h = BM25Index(d, doc_range=(lo, hi))
        ids, sc, _tot = h.topk(q, 10)
        merged.append((ids, sc))
        per_shard.append(h.io_stats["postings_row_groups_read"])
    # every shard must read strictly less than the full handle, and the
    # mean per-shard read must be well under the full read
    assert all(p < full_rg for p in per_shard), (per_shard, full_rg)
    assert float(np.mean(per_shard)) <= 0.6 * full_rg, (per_shard, full_rg)
    # merged shard top-k == unsharded top-k (bitwise scores)
    all_ids = np.concatenate([m[0] for m in merged])
    all_sc = np.concatenate([m[1] for m in merged])
    order = np.lexsort((all_ids, -all_sc))[:10]
    assert [(int(i), float(s)) for i, s in
            zip(all_ids[order], all_sc[order])] == \
        [(m.doc_id, m.score) for m in want.matches]

    # the actor-based ShardedEngine path stays rank-identical too
    eng = ShardedEngine(d, n_shards=4, num_cpus=0.25)
    try:
        got = eng.search(q, max_results=10, with_spans=False)
        assert got.total_matches == want.total_matches
        assert [(m.doc_id, m.score) for m in got.matches] == \
               [(m.doc_id, m.score) for m in want.matches]
    finally:
        eng.shutdown()

    # global-df invariant directly: a half-range handle reports the same
    # df as the full handle for a common term
    lo, hi = compute_doc_ranges(d, 2)[0]
    half = BM25Index(d, doc_range=(lo, hi))
    full2 = BM25Index(d)
    assert half.postings(["data"])["data"].df == \
        full2.postings(["data"])["data"].df


def test_result_cache_hits_and_reload_invalidation(ray_session, tmp_path):
    """The serving-replica result cache: identical repeated queries hit
    (identical object contents), a reload after an append drops the
    cache AND the new answer reflects the appended docs."""
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index, tail_append
    from pdfsearch_ray.pipelines.engine import QueryEngine

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    cut = int(t.num_rows * 0.7)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(t.slice(0, cut)), d, analyzer="en",
                num_buckets=8, lang_col="lang")
    eng = QueryEngine.options(num_cpus=0.25).remote(d)
    q = "data processing pipeline"
    r1 = ray.get(eng.search.remote(q, max_results=5, with_spans=False))
    r2 = ray.get(eng.search.remote(q, max_results=5, with_spans=False))
    st = ray.get(eng.result_cache_stats.remote())
    assert st["hits"] == 1 and st["misses"] == 1
    assert [(m.doc_id, m.score) for m in r1.matches] == \
           [(m.doc_id, m.score) for m in r2.matches]
    # different kwargs are a different key
    ray.get(eng.search.remote(q, max_results=3, with_spans=False))
    assert ray.get(eng.result_cache_stats.remote())["misses"] == 2

    watch = str(tmp_path / "deltas")
    os.makedirs(watch)
    tmp = f"{watch}/.d.tmp"
    pq.write_table(t.slice(cut), tmp)
    os.replace(tmp, f"{watch}/delta-001.parquet")
    out = tail_append(d, watch, poll_sec=0.1, max_batches=1,
                      lang_col="lang")
    assert out["commits"] == 1
    ray.get(eng.reload.remote())
    st = ray.get(eng.result_cache_stats.remote())
    assert st["size"] == 0              # cache dropped on reload
    r3 = ray.get(eng.search.remote(q, max_results=5, with_spans=False))
    assert r3.total_matches > r1.total_matches   # fresh view, not stale
    ray.kill(eng)


WARM_QUERIES = ["data processing pipeline", "stream window", "query engine",
                "processing data", "information system window", "merge",
                "the data stream", "search index", "zzznope", "data data"]


def _count_postings_reads(idx):
    """Count ``idx``'s postings row-group reads per (file, row group)."""
    from collections import Counter

    reads = Counter()
    open_file = idx._parquet_file

    def spy(path, kind):
        pf = open_file(path, kind)
        if kind != "postings":
            return pf

        class Counted:
            def __getattr__(self, name):
                return getattr(pf, name)

            def read_row_group(self, rg, **kwargs):
                reads[(path, rg)] += 1
                return pf.read_row_group(rg, **kwargs)

        return Counted()

    idx._parquet_file = spy
    return reads


def test_batched_warm_equals_per_query_warm(ray_session, tmp_path):
    """Warming with one batched posting load (what QueryEngine.warm and
    ShardEngine.warm run) caches the same terms and gives the same
    top-k and scores on the warm queries as warming one query at a
    time, on a full and on a doc_range handle, and reads each postings
    row group at most once."""
    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.engine import (compute_doc_ranges,
                                                warm_handle)
    from pdfsearch_ray.pipelines.query import BM25Index

    d = str(tmp_path / "idx")
    # small row groups: each warm query's terms touch several, and
    # queries share them
    build_index(SRC, d, analyzer="en", num_buckets=4, row_group_size=16)
    lo, hi = compute_doc_ranges(d, 2)[1]

    def full_top(idx, q):
        ms = idx.search(q, max_results=10, with_spans=False)
        return ms.total_matches, [(m.doc_id, m.score) for m in ms.matches]

    def range_top(idx, q):
        ids, sc, total = idx.topk(q, 10)
        return total, list(zip(ids.tolist(), sc.tolist()))

    for doc_range, run, top in (
            (None, lambda idx, q: idx.search(q, max_results=1,
                                             with_spans=False), full_top),
            ((lo, hi), lambda idx, q: idx.topk(q, 1), range_top)):
        one_by_one = BM25Index(d, doc_range=doc_range)
        each_reads = _count_postings_reads(one_by_one)
        for q in WARM_QUERIES:
            run(one_by_one, q)
        batched = BM25Index(d, doc_range=doc_range)
        batched_reads = _count_postings_reads(batched)
        n = warm_handle(batched, WARM_QUERIES, lambda q: run(batched, q))

        assert n == batched.cached_terms() == one_by_one.cached_terms() > 0
        assert max(batched_reads.values()) == 1, doc_range
        assert sum(batched_reads.values()) < sum(each_reads.values())
        for q in WARM_QUERIES:
            assert top(batched, q) == top(one_by_one, q), (doc_range, q)
