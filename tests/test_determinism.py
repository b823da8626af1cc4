"""Build determinism across execution configurations (SURVEY §5: same
manifest-level results at any parallelism).

The index content must be a pure function of (corpus, analyzer, build
params) — never of batch size, pool type, or task scheduling order.
Guaranteed by: deterministic doc_ids, per-(term,salt) re-sort by doc_id
inside encode, and fixed float accumulation at query time.
"""

import numpy as np
import pyarrow.parquet as pq

SRC = "/root/testdata/sf0.001/documents.parquet"


def _postings_canon(index_dir):
    t = pq.read_table(f"{index_dir}/postings")
    t = t.sort_by([("bucket", "ascending"), ("term", "ascending"),
                   ("salt", "ascending"), ("block_id", "ascending")])
    return t.select(["bucket", "term", "salt", "block_id", "first_doc",
                     "n", "doc_blob", "tf_blob", "pos_blob"])


def _docs_canon(index_dir):
    """The docs catalog's rows, doc lengths included, in doc_id order."""
    t = pq.read_table(f"{index_dir}/docs")
    return t.sort_by([("doc_id", "ascending")]).select(
        ["doc_id", "url", "hash", "lang", "dl", "text"])


def _topk(index_dir, q="data processing pipeline"):
    from pdfsearch_ray.pipelines.query import BM25Index

    ms = BM25Index(index_dir).search(q, max_results=20)
    return [(m.doc_id, round(m.score, 12)) for m in ms.matches]


def test_build_invariant_to_batch_size_and_pool(ray_session, tmp_path):
    from pdfsearch_ray.pipelines.build import build_index

    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    c = str(tmp_path / "c")
    # task pool, default batching
    build_index(SRC, a, analyzer="en", num_buckets=8)
    # task pool, tiny batches (different combiner segmentation)
    build_index(SRC, b, analyzer="en", num_buckets=8,
                tokenize_batch_size=64)
    # pinned actor pool
    build_index(SRC, c, analyzer="en", num_buckets=8,
                tokenize_concurrency=2)

    pa_, pb, pc_ = _postings_canon(a), _postings_canon(b), _postings_canon(c)
    assert pa_.equals(pb), "postings differ with batch size"
    assert pa_.equals(pc_), "postings differ between task and actor pools"
    da, db, dc = _docs_canon(a), _docs_canon(b), _docs_canon(c)
    assert da.equals(db) and da.equals(dc), "docs catalogs differ"
    assert _topk(a) == _topk(b) == _topk(c)


def test_sampled_stats_only_scales_scores(ray_session, tmp_path):
    """Sampled avgdl changes score VALUES, never the docID set per term:
    posting ids/tfs are identical, only max_wdl metadata moves."""
    from pdfsearch_ray.pipelines.build import build_index

    a = str(tmp_path / "exact")
    b = str(tmp_path / "sampled")
    build_index(SRC, a, analyzer="en", num_buckets=8, sample_rate=1.0)
    build_index(SRC, b, analyzer="en", num_buckets=8, sample_rate=0.3)
    ta, tb = _postings_canon(a), _postings_canon(b)
    assert ta.equals(tb)
    ids_a = [d for d, _ in _topk(a)]
    ids_b = [d for d, _ in _topk(b)]
    # same corpus, slightly different avgdl: identical hit SETS
    assert set(ids_a) == set(ids_b)


def test_docs_row_groups_prunable(ray_session, tmp_path):
    """Docs row-group doc_id ranges must be tight enough that a 10-id
    hydration touches far fewer row groups than exist (the regression
    guard for the interleaved-docs bug)."""
    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.query import BM25Index

    d = str(tmp_path / "idx")
    build_index(SRC, d, analyzer="en", num_buckets=8)
    idx = BM25Index(d)
    rgs = idx._build_doc_rg_index()
    if len(rgs) < 4:
        return  # single-block corpus: nothing to prune
    want = sorted(np.random.default_rng(3).choice(500, 10, replace=False))
    touched = sum(1 for _, _, lo, hi in rgs if any(lo <= w <= hi for w in want))
    assert touched <= max(10, len(rgs) // 2)
