"""Parent-child block-join search (Lucene ToParentBlockJoinQuery,
ScoreMode.Max): score CHILD units with BM25, return PARENT documents
ranked by their best child.

The child corpus is derived, not stored: each document splits into
fixed-width word chunks (the chunk_dedup space-split convention —
``string_split(text, ' ')`` groups of ``words_per_chunk``), and BM25
statistics (N, avgdl, df) are computed over the CHUNK corpus, not the
documents.  A parent's score is the max over its chunks' 6-dp-rounded
BM25 scores; ``best_chunk`` is the smallest chunk index attaining it —
the "which passage matched" answer a user of nested/child documents
gets from ES ``inner_hits``.

Distributed shape: chunking happens INSIDE the tokenize pass (a doc's
chunks never cross batch boundaries), so the scan emits per-chunk
narrow hit rows + per-batch stats sentinels (the chunk corpus has
no index to read them from); the scoring pass can therefore also reduce
chunk→parent (max, arg-min chunk) per batch before its local top-k —
the driver merge sees O(k · blocks).  One streaming pass over raw
text, no shuffle, nothing chunk-corpus-sized materializes.

Reference scope: bleve/the reference have no nested-document query
(search_pdfs.go is flat); this is the beyond-reference operator for
long-document corpora where the index unit is a chunk but the answer
unit is the document (SURVEY §2 N:1 generalization, inverted: the
unit_topk gate maps N units → composite IDs; block join maps child
scores → parent ranking without materializing a child index).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..index.codec import bm25_idf, bm25_wdl

__all__ = ["blockjoin_topk", "blockjoin_sql", "BJ_QUERIES", "BJ_K",
           "BJ_WORDS_PER_CHUNK"]

BJ_QUERIES = ("stream window dup", "merge sort key")
BJ_K = 10
BJ_WORDS_PER_CHUNK = 16
_BM25_K1, _BM25_B = 1.2, 0.75


class _ChunkScan:
    """Chunk each doc into W-word children, tokenize the chunk stream,
    emit (parent doc_id, chunk_idx, dl, tf<j>) hit rows + a stats
    sentinel (doc_id=-1: nc=chunks-with-tokens, dl=sum dl, tf<j>=df
    partials over chunks)."""

    def __init__(self, qterms: tuple[str, ...],
                 words_per_chunk: int = BJ_WORDS_PER_CHUNK):
        self.qterms = tuple(sorted(qterms))
        self.w = int(words_per_chunk)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .queries import _tok_codes

        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        # chunk payload copies are O(output bytes) — the doc_chunks
        # precedent; everything after is vectorized
        c_parent: list[int] = []
        c_idx: list[int] = []
        c_text: list[str] = []
        for did, text in zip(ids, texts):
            words = (text or "").split(" ")
            for ci in range(0, (len(words) + self.w - 1) // self.w):
                c_parent.append(int(did))
                c_idx.append(ci)
                c_text.append(" ".join(
                    words[ci * self.w:(ci + 1) * self.w]))
        chunk_t = pa.table({
            "doc_id": pa.array(c_parent, type=pa.int64()),
            "text": pa.array(c_text, type=pa.string()),
        })
        m = len(self.qterms)
        codes, row_idx, vocab = _tok_codes(chunk_t)
        nrows = chunk_t.num_rows
        dl = np.bincount(row_idx, minlength=nrows).astype(np.int64)
        slot = np.full(len(vocab) or 1, -1, dtype=np.int64)
        for j, t in enumerate(self.qterms):
            try:
                slot[vocab.index(t)] = j
            except ValueError:
                pass
        tok_slot = slot[codes] if len(codes) else np.empty(0, np.int64)
        hit = tok_slot >= 0
        tf = np.zeros((nrows, m), dtype=np.int64)
        np.add.at(tf, (row_idx[hit], tok_slot[hit]), 1)
        keep = (tf > 0).any(axis=1)
        n_keep = int(keep.sum())
        parents = np.asarray(c_parent, dtype=np.int64)
        cidx = np.asarray(c_idx, dtype=np.int64)
        cols = {
            "doc_id": pa.array(
                np.r_[parents[keep], [-1]], type=pa.int64()),
            "chunk_idx": pa.array(
                np.r_[cidx[keep], [-1]], type=pa.int64()),
            "dl": pa.array(np.r_[dl[keep], [int(dl.sum())]]),
            "nc": pa.array(np.r_[np.zeros(n_keep, dtype=np.int64),
                                 [int((dl > 0).sum())]]),
        }
        for j in range(m):
            df_j = int((tf[:, j] > 0).sum())
            cols[f"tf{j}"] = pa.array(np.r_[tf[keep, j], [df_j]])
        return pa.table(cols)


def blockjoin_topk(sf_dir: str, *, queries=BJ_QUERIES, k: int = BJ_K,
                   words_per_chunk: int = BJ_WORDS_PER_CHUNK,
                   k1: float = _BM25_K1, b: float = _BM25_B) -> pa.Table:
    """Top-k parents by best-child BM25 for the fixed query set."""
    import pyarrow.compute as pc

    from ..analysis.analyzer import analyze_simple
    from ..functions.tables import read_parquet_nometa

    per_q = {q: sorted(set(analyze_simple(q))) for q in queries}
    union = tuple(sorted({t for ts in per_q.values() for t in ts}))
    j_of = {t: j for j, t in enumerate(union)}
    tf_cols = [f"tf{j}" for j in range(len(union))]

    spill = read_parquet_nometa(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
    ).map_batches(
        _ChunkScan(union, words_per_chunk),
        batch_format="pyarrow", batch_size=512,
    ).materialize()

    def stats_partial(t: pa.Table) -> pa.Table:
        s = t.filter(pc.equal(t["doc_id"], -1))
        cols = {
            "nc": pa.array([int(pc.sum(s["nc"]).as_py() or 0)],
                           type=pa.int64()),
            "dl": pa.array([int(pc.sum(s["dl"]).as_py() or 0)],
                           type=pa.int64()),
        }
        for cn in tf_cols:
            cols[cn] = pa.array([int(pc.sum(s[cn]).as_py() or 0)],
                                type=pa.int64())
        return pa.table(cols)

    st = spill.map_batches(
        stats_partial, batch_format="pyarrow").to_pandas()
    n = int(st["nc"].sum()) if "nc" in st.columns else 0
    empty = pa.table({
        "query": pa.array([], type=pa.string()),
        "doc_id": pa.array([], type=pa.int64()),
        "best_chunk": pa.array([], type=pa.int64()),
        "score": pa.array([], type=pa.float64()),
        "rank": pa.array([], type=pa.int64()),
    })
    if n == 0:
        return empty
    avgdl = float(int(st["dl"].sum())) / float(n)
    dfs = {union[j]: int(st[tf_cols[j]].sum())
           for j in range(len(union))}

    def score_batch(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["doc_id"], -1))
        out_schema = pa.schema([("query", pa.string()),
                                ("doc_id", pa.int64()),
                                ("best_chunk", pa.int64()),
                                ("score", pa.float64())])
        if t.num_rows == 0:
            return out_schema.empty_table()
        ids = t["doc_id"].to_numpy()
        cidx = t["chunk_idx"].to_numpy()
        dl = t["dl"].to_numpy().astype(np.float64)
        tfm = {cn: t[cn].to_numpy().astype(np.float64)
               for cn in tf_cols}
        out_q, out_d, out_c, out_s = [], [], [], []
        for q in sorted(queries):
            score = np.zeros(len(ids), dtype=np.float64)
            matched = np.zeros(len(ids), dtype=bool)
            for tm in per_q[q]:                 # sorted-term sum order
                df = dfs.get(tm, 0)
                if df == 0:
                    continue
                tf = tfm[tf_cols[j_of[tm]]]
                h = tf > 0
                matched |= h
                score[h] += bm25_idf(n, df) * bm25_wdl(
                    tf[h], dl[h], k1, b, avgdl)
            if not matched.any():
                continue
            sc = np.round(score[matched], 6)
            mid, mcx = ids[matched], cidx[matched]
            # chunk -> parent within this batch: max score, then
            # smallest chunk_idx (_merge_parent_candidates re-applies
            # the rule across batches)
            order = np.lexsort((mcx, -sc, mid))
            pid, pcx, psc = mid[order], mcx[order], sc[order]
            first = np.r_[True, pid[1:] != pid[:-1]]
            pid, pcx, psc = pid[first], pcx[first], psc[first]
            top = np.lexsort((pid, -psc))[:k]
            out_q.extend([q] * top.size)
            out_d.extend(pid[top].tolist())
            out_c.extend(pcx[top].tolist())
            out_s.extend(psc[top].tolist())
        return pa.table({
            "query": pa.array(out_q, type=pa.string()),
            "doc_id": pa.array(out_d, type=pa.int64()),
            "best_chunk": pa.array(out_c, type=pa.int64()),
            "score": pa.array(out_s, type=pa.float64()),
        })

    cand = spill.map_batches(
        score_batch, batch_format="pyarrow").to_pandas()
    if cand.empty:
        return empty
    top = _merge_parent_candidates(cand, k)
    return pa.table({
        "query": pa.array(top["query"].tolist(), type=pa.string()),
        "doc_id": pa.array(top["doc_id"].tolist(), type=pa.int64()),
        "best_chunk": pa.array(top["best_chunk"].tolist(),
                               type=pa.int64()),
        "score": pa.array(top["score"].tolist(), type=pa.float64()),
        "rank": pa.array(top["rank"].tolist(), type=pa.int64()),
    })


def _merge_parent_candidates(cand, k: int):
    """Final merge of the per-batch (query, doc_id, best_chunk, score)
    candidates → per-query top-``k`` parents with ``rank``, ordered
    (query, score desc, doc_id asc).  Ray may split one parent's chunks
    across blocks, so a doc_id can arrive from several batches: keep
    its max score, then its min best_chunk, before ranking."""
    cand = cand.sort_values(
        ["query", "doc_id", "score", "best_chunk"],
        ascending=[True, True, False, True], kind="mergesort",
    ).drop_duplicates(["query", "doc_id"])
    top = cand.sort_values(
        ["query", "score", "doc_id"], ascending=[True, False, True],
        kind="mergesort").groupby("query", sort=False).head(k)
    top = top.reset_index(drop=True)
    top["rank"] = top.groupby("query", sort=False).cumcount() + 1
    return top


def blockjoin_sql(queries=BJ_QUERIES, *, k: int = BJ_K,
                  words_per_chunk: int = BJ_WORDS_PER_CHUNK,
                  k1: float = _BM25_K1, b: float = _BM25_B) -> str:
    """Oracle: DuckDB rebuilds the chunk corpus (chunk_dedup word-split
    convention), chunk-level BM25 stats and scores, then the parent
    max / arg-min-chunk reduction."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    w = int(words_per_chunk)
    parts = [f"""WITH words AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                 generate_subscripts(string_split(text, ' '), 1) - 1 AS i
          FROM documents
        ),
        chunks AS (
          SELECT doc_id, i // {w} AS chunk_idx,
                 string_agg(w, ' ' ORDER BY i) AS chunk
          FROM words GROUP BY doc_id, i // {w}
        ),
        ctoks AS (
          SELECT doc_id, chunk_idx,
                 unnest(regexp_split_to_array(lower(chunk),
                        '[^a-z0-9]+')) AS term
          FROM chunks
        ),
        ctok AS (SELECT * FROM ctoks WHERE term <> ''),
        cdl AS (SELECT doc_id, chunk_idx, count(*) AS dl
                FROM ctok GROUP BY doc_id, chunk_idx),
        stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM cdl)"""]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),
        tfs{qi} AS (
            SELECT t.doc_id, t.chunk_idx, t.term, count(*) AS tf
            FROM ctok t JOIN q{qi} USING (term)
            GROUP BY t.doc_id, t.chunk_idx, t.term
        ),
        dfs{qi} AS (SELECT term, count(*) AS df
                    FROM tfs{qi} GROUP BY term),
        sc{qi} AS (
            SELECT tfs{qi}.doc_id, tfs{qi}.chunk_idx,
                   round(sum(
                       ln(1 + (stats.n - dfs{qi}.df + 0.5)
                              / (dfs{qi}.df + 0.5))
                       * tfs{qi}.tf
                       / (tfs{qi}.tf + {k1} * (1 - {b}
                          + {b} * cdl.dl / stats.avgdl))), 6) AS s
            FROM tfs{qi}
            CROSS JOIN stats
            JOIN dfs{qi} ON tfs{qi}.term = dfs{qi}.term
            JOIN cdl ON tfs{qi}.doc_id = cdl.doc_id
                    AND tfs{qi}.chunk_idx = cdl.chunk_idx
            GROUP BY tfs{qi}.doc_id, tfs{qi}.chunk_idx
        ),
        par{qi} AS (
            SELECT doc_id, score, best_chunk FROM (
                SELECT doc_id, s AS score, chunk_idx AS best_chunk,
                       row_number() OVER (
                           PARTITION BY doc_id
                           ORDER BY s DESC, chunk_idx ASC) AS rn
                FROM sc{qi}
            ) WHERE rn = 1
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, best_chunk, score,
                   row_number() OVER (
                       ORDER BY score DESC, doc_id ASC) AS rank
            FROM par{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")
