"""Nextword index: an auxiliary adjacency index for phrase queries.

Bahle, Williams & Zobel, "Efficient phrase querying with an auxiliary
index" (SIGIR 2002): store postings for (word, next-word) PAIRS so a
two-word phrase query reads ONE short posting list instead of two full
term lists plus a positional intersection — the classic phrase-cache
trade (the artifact costs extra build bytes; head phrase queries drop
from two-list positional work to a single lookup).

Build shape: ONE vectorized tokenize pass over `documents`
(queries._tok_codes) emits per-doc adjacent-pair counts
``(w1, w2, doc_id, tf, dl)``, bucket-partitioned by
``fnv1a64(w1 ⧺ ' ' ⧺ w2) % B`` with the tokenize-combiner spill shape
(no all-to-all sort; a pair's postings co-locate in one bucket file),
fingerprint-cached with atomic tmp+rename like every other derived
artifact.  Queries read one bucket file, filter one pair, and score
BM25 over the pair tf with the corpus stats from the simple index's
manifest — EXACTLY the ranking `boolquery.phrase_topk` computes from
the positions store, which is the cross-implementation equivalence
the pytest pins (adjacency-from-tokens ≡ adjacency-from-positions).

Oracle: the same pair-ordinality SQL chain as phrase_topk
(boolquery.phrase_topk_sql over this gate's query set).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..index.codec import bm25_idf, bm25_wdl

__all__ = ["nextword_index_cached", "nextword_phrase_topk",
           "nextword_sql", "NW_QUERIES", "NW_K"]

NW_QUERIES = ("big data", "hash join", "window order", "merge scan",
              "data data")
NW_K = 10


def nextword_index_cached(sf_dir: str, *, num_buckets: int = 16) -> str:
    """Build-once cached nextword artifact:
    ``__jb=N/part.parquet`` rows (w1, w2, doc_id, tf, dl), sorted
    (w1, w2, doc asc)."""
    from ..functions.spill import cached_dir, file_key

    src = f"{sf_dir}/documents.parquet"
    # v2: bucket directories are spill.py's ``__jb=`` layout
    return cached_dir(
        "pdfsearch_nextword", (*file_key(src), "nextword-v2", num_buckets),
        "nw_manifest.json",
        lambda out: _build_nextword(src, out, num_buckets))


def _build_nextword(src: str, tmp: str, num_buckets: int) -> None:
    import glob as _glob
    import json

    import pyarrow.parquet as pqw

    from ..functions.hashing import fnv1a64_str
    from ..functions.spill import (BUCKET_COL, bucket_path, layout_buckets,
                                   spill_bucketed)
    from ..functions.tables import read_parquet_nometa
    from .queries import _tok_codes

    def pairs_batch(batch: pa.Table) -> pa.Table:
        codes, doc_idx, vocab = _tok_codes(batch)
        empty = pa.table({
            "w1": pa.array([], type=pa.string()),
            "w2": pa.array([], type=pa.string()),
            "doc_id": pa.array([], type=pa.int64()),
            "tf": pa.array([], type=pa.int64()),
            "dl": pa.array([], type=pa.int64()),
            BUCKET_COL: pa.array([], type=pa.int32()),
        })
        if codes.size < 2:
            return empty
        nrows = batch.num_rows
        dl = np.bincount(doc_idx, minlength=nrows).astype(np.int64)
        adj = doc_idx[1:] == doc_idx[:-1]
        if not adj.any():
            return empty
        v = len(vocab)
        # pack (doc, c1, c2) -> count via np.unique on a single key
        c1 = codes[:-1][adj].astype(np.int64)
        c2 = codes[1:][adj].astype(np.int64)
        d = doc_idx[:-1][adj].astype(np.int64)
        key = (d * v + c1) * v + c2
        uk, tf = np.unique(key, return_counts=True)
        u_c2 = uk % v
        u_c1 = (uk // v) % v
        u_d = uk // (v * v)
        ids = batch["doc_id"].to_numpy()[u_d]
        w1 = [vocab[c] for c in u_c1.tolist()]
        w2 = [vocab[c] for c in u_c2.tolist()]
        b = np.fromiter(
            (fnv1a64_str(f"{a} {bb}") % num_buckets
             for a, bb in zip(w1, w2)),
            dtype=np.int64, count=len(w1)).astype(np.int32)
        return pa.table({
            "w1": pa.array(w1, type=pa.string()),
            "w2": pa.array(w2, type=pa.string()),
            "doc_id": pa.array(ids, type=pa.int64()),
            "tf": pa.array(tf.astype(np.int64)),
            "dl": pa.array(dl[u_d]),
            BUCKET_COL: pa.array(b),
        })

    os.makedirs(tmp)
    spill_bucketed(
        read_parquet_nometa(src, columns=["doc_id", "text"])
        .map_batches(pairs_batch, batch_format="pyarrow", batch_size=512)
        .repartition(num_buckets), None, tmp)
    # per-bucket consolidate + sort for pruned reads
    n_rows = 0
    for b in layout_buckets(tmp):
        bdir = bucket_path(tmp, b)
        files = sorted(_glob.glob(f"{bdir}/*.parquet"))
        t = pa.concat_tables([pqw.read_table(f) for f in files])
        t = t.sort_by([("w1", "ascending"), ("w2", "ascending"),
                       ("doc_id", "ascending")])
        for f in files:
            os.remove(f)
        pqw.write_table(t, os.path.join(bdir, "part.parquet"),
                        row_group_size=4096)
        n_rows += t.num_rows
    with open(os.path.join(tmp, "nw_manifest.json"), "w") as f:
        json.dump({"num_buckets": num_buckets, "n_rows": n_rows}, f)


def nextword_phrase_topk(sf_dir: str) -> pa.Table:
    """Two-word ranked PhraseQuery answered from the NEXTWORD artifact
    alone (one bucket file read per query, no positional
    intersection); schema and ranking identical to phrase_topk."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..analysis.analyzer import analyze_simple
    from ..functions.hashing import fnv1a64_str
    from ..functions.spill import bucket_path
    from .expand import simple_index_cached
    from .query import BM25Index

    nw = nextword_index_cached(sf_dir)
    import json

    nb = json.load(open(os.path.join(nw, "nw_manifest.json")))["num_buckets"]
    m = BM25Index(simple_index_cached(sf_dir)).manifest
    out_q, out_d, out_t, out_s = [], [], [], []
    for q in sorted(NW_QUERIES):
        t1, t2 = analyze_simple(q)[:2]
        b = fnv1a64_str(f"{t1} {t2}") % nb
        p = os.path.join(bucket_path(nw, b), "part.parquet")
        if not os.path.isfile(p):
            continue
        t = pq.read_table(p)
        t = t.filter(pc.and_(pc.equal(t["w1"], t1),
                             pc.equal(t["w2"], t2)))
        if not t.num_rows:
            continue
        docs = t["doc_id"].to_numpy()
        tf = t["tf"].to_numpy().astype(np.float64)
        dl = t["dl"].to_numpy().astype(np.float64)
        idf = float(bm25_idf(m.n_docs, int(docs.size)))
        sc = np.round(idf * bm25_wdl(tf, dl, m.k1, m.b, m.avgdl), 6)
        cut = np.lexsort((docs, -sc))[:NW_K]
        out_q.extend([q] * cut.size)
        out_d.extend(docs[cut].tolist())
        out_t.extend(tf[cut].astype(np.int64).tolist())
        out_s.extend(sc[cut].tolist())
    ranks: list[int] = []
    prev = None
    for q in out_q:
        ranks.append(1 if q != prev else ranks[-1] + 1)
        prev = q
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "phrase_tf": pa.array(out_t, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(ranks, type=pa.int64()),
    })


def nextword_sql() -> str:
    """Oracle: the phrase_topk pair-ordinality chain over this gate's
    query set (same schema, same algebra — the artifact must reproduce
    the positional evaluation exactly)."""
    from .boolquery import phrase_topk_sql

    return phrase_topk_sql(queries=NW_QUERIES, k=NW_K)
