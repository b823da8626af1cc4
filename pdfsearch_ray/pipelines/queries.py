"""Registered query pipelines over the driver's sf tables.

Each function takes ``sf_dir`` and returns a Ray Dataset / Arrow table /
pandas DataFrame; each has a matching ANSI-SQL oracle in
``__ray_entry__.oracle_sql`` that DuckDB runs on the same parquet files.
Column names and dtypes are aligned with the SQL on purpose — the
driver's value-hash sorts columns by name, so every computed column is
named identically on both sides (see repo README).

Tokenization for the SQL-checked pipelines is the ``simple`` chain
(lower + split on [^a-z0-9]+), because it is exactly expressible as
``regexp_split_to_array(lower(text), '[^a-z0-9]+')`` in DuckDB; the full
``en`` chain (possessive→stop→Porter) is exercised by the fulltext
pipelines, which are pinned by golden pytest fixtures instead (DuckDB
1.0.0 in this sandbox cannot load the fts/stemmer extension).

Float-returning pipelines round to 6 decimals on BOTH sides and break
ranking ties by id so IEEE summation-order differences between engines
cannot flip a rank (SURVEY §7.5 rank-identity note).
"""

from __future__ import annotations

from ..functions.spill import spill_dir
from ..index.codec import bm25_idf, bm25_wdl

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Count, Min, Sum

# Small fixed stopword list shared verbatim with the SQL oracle.
QUALITY_STOPWORDS = ("the", "and", "of", "to", "a", "in", "is", "it", "for", "on")

BM25_QUERY_TERMS = ("data", "stream", "window")
BM25_K = 20
BM25_K1 = 1.2
BM25_B = 0.75


def _docs(sf_dir: str) -> rd.Dataset:
    from ..functions.tables import read_parquet_nometa

    return read_parquet_nometa(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])


def _simple_tokens(sf_dir: str) -> rd.Dataset:
    """One row per (doc_id, term) with tf and dl (simple analyzer);
    task-pool tokenize (per-worker memoized state, no actor cap)."""
    from functools import partial

    from ..stages.tokenize import tokenize_batch

    return _docs(sf_dir).map_batches(
        partial(tokenize_batch, cfg=dict(
            analyzer="simple", text_col="text", id_col="doc_id",
            with_positions=False, num_buckets=16,
        )),
        batch_format="pyarrow",
        batch_size=512,
    )


# ---------------------------------------------------------------- SQL-oracled


class _TermAgg:
    """Per-batch COMBINER for term statistics: one (term, df_part,
    tf_part) row per distinct term per batch instead of one row per
    (doc, term) — the shuffle entering the term groupby carries
    batch-vocabulary rows, not corpus-token rows (SURVEY §4:
    pre-aggregate before groupby).  Run as a task pool (plain function
    below) — the stage is too short to amortize actor-pool spawn."""

    def __init__(self):
        from ..analysis.analyzer import analyze_simple

        self.analyze = analyze_simple

    def __call__(self, batch: pa.Table) -> pa.Table:
        df: dict[str, int] = {}
        tf: dict[str, int] = {}
        for text in batch["text"].to_pylist():
            toks = self.analyze(text or "")
            if not toks:
                continue
            seen: dict[str, int] = {}
            for t in toks:
                seen[t] = seen.get(t, 0) + 1
            for t, c in seen.items():
                df[t] = df.get(t, 0) + 1
                tf[t] = tf.get(t, 0) + c
        terms = list(df.keys())
        return pa.table({
            "term": pa.array(terms, type=pa.string()),
            "df_part": pa.array([df[t] for t in terms], type=pa.int64()),
            "tf_part": pa.array([tf[t] for t in terms], type=pa.int64()),
        })


_TERM_AGG: list = []


def _term_agg_task(batch: pa.Table) -> pa.Table:
    if not _TERM_AGG:
        _TERM_AGG.append(_TermAgg())
    return _TERM_AGG[0](batch)


_TERM_STATS_CACHE: dict[str, pa.Table] = {}


def _term_stats(sf_dir: str) -> pa.Table:
    """ONE tokenize+combine pass yielding the full (term, df, tf) table
    (vocabulary-sized — small by Heaps' law, safe to hold).  Shared by
    term_df and top_terms via a per-process memo so the driver's
    back-to-back calls tokenize the corpus once, not twice."""
    cached = _TERM_STATS_CACHE.get(sf_dir)
    if cached is not None:
        return cached
    agg = (
        _docs(sf_dir)
        .map_batches(_term_agg_task, batch_format="pyarrow", batch_size=512)
        .groupby("term")
        .aggregate(Sum("df_part", alias_name="df"),
                   Sum("tf_part", alias_name="tf"))
    )
    from ..functions.tables import typed_table
    tbl = typed_table(agg, pa.schema([
        ("term", pa.string()), ("df", pa.int64()), ("tf", pa.int64())]))
    _TERM_STATS_CACHE[sf_dir] = tbl
    return tbl


def term_df(sf_dir: str) -> pa.Table:
    """Document frequency per term (the A1 shuffle, aggregation-only
    view) — combiner-aggregated (see _TermAgg)."""
    t = _term_stats(sf_dir)
    return pa.table({
        "term": t["term"],
        "df": t["df"].cast(pa.int64()),
    })


def top_terms(sf_dir: str) -> pa.Table:
    """Top-100 terms by collection frequency, tie-break term asc (T1/T3)."""
    t = _term_stats(sf_dir)
    import pandas as pd  # noqa: F401

    df = t.select(["term", "tf"]).to_pandas()
    df = df.sort_values(["tf", "term"], ascending=[False, True],
                        kind="mergesort").head(100)
    return pa.table({
        "term": pa.array(df["term"].tolist(), type=pa.string()),
        "tf": pa.array(df["tf"].astype("int64").tolist(), type=pa.int64()),
    })


def doc_token_stats(sf_dir: str) -> rd.Dataset:
    """Per-doc token count + distinct terms — no shuffle, pure map_batches."""

    def stats(batch: pa.Table) -> pa.Table:
        from ..analysis.analyzer import analyze_simple

        ids, n_tok, n_uniq = [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            toks = analyze_simple(text or "")
            if not toks:
                continue
            ids.append(did)
            n_tok.append(len(toks))
            n_uniq.append(len(set(toks)))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_tokens": pa.array(n_tok, type=pa.int64()),
            "n_unique": pa.array(n_uniq, type=pa.int64()),
        })

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


def exact_dedup(sf_dir: str) -> rd.Dataset:
    """Exact content dedup by md5(text): keep min doc_id per hash (D2 done
    for real — the reference declares this and leaves it inert,
    bleve_pdf.go:395-409)."""
    import hashlib

    def add_hash(batch: pa.Table) -> pa.Table:
        hashes = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table({
            "hash": pa.array(hashes, type=pa.string()),
            "doc_id": batch["doc_id"].cast(pa.int64()),
        })

    return (
        _docs(sf_dir)
        .map_batches(add_hash, batch_format="pyarrow")
        .groupby("hash")
        .aggregate(Min("doc_id", alias_name="doc_id"), Count(alias_name="n_dups"))
    )


def quality_scores(sf_dir: str) -> rd.Dataset:
    """Per-doc quality features (integer-valued so the oracle hash is
    float-free): token count, stopword hits, longest token.

    Round-5 session 5: the original per-doc Python loop (a per-row
    anti-pattern in a stage that touches EVERY doc) was replaced by the
    quality_signals kernels — one arrow regex split per batch, per-doc
    segment reductions via np.add.at / np.maximum.at, stopword hits via
    one is_in — outputs bitwise identical (same gate hash)."""

    def q(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch["text"]), pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        parent = toks.value_parent_indices().to_numpy().astype(np.int64)
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        n = batch.num_rows
        n_tok = np.zeros(n, dtype=np.int64)
        np.add.at(n_tok, parent[ok], 1)
        stop_hit = pc.is_in(
            flat, value_set=pa.array(sorted(QUALITY_STOPWORDS),
                                     type=pa.string())
        ).to_numpy(zero_copy_only=False)
        n_stop = np.zeros(n, dtype=np.int64)
        np.add.at(n_stop, parent[ok & stop_hit], 1)
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mx = np.zeros(n, dtype=np.int64)
        np.maximum.at(mx, parent[ok], lens[ok])
        keep = n_tok > 0
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()).filter(
                pa.array(keep)),
            "n_tokens": pa.array(n_tok[keep], type=pa.int64()),
            "n_stop": pa.array(n_stop[keep], type=pa.int64()),
            "max_token_len": pa.array(mx[keep], type=pa.int64()),
        })

    return _docs(sf_dir).map_batches(q, batch_format="pyarrow")


class _BM25Scan:
    """ONE streaming tokenize pass for the bm25_topk projection: emits
    one NARROW row per matching doc — (doc_id, dl, tf<j>) with a fixed
    tf column per query term, so scoring later is purely per-row (no
    per-doc reassembly across batch boundaries) — plus a per-batch
    stats row (doc_id=-1: nd=docs-with-tokens, dl=Σdl, tf<j>=df
    partials).  Output is O(matching docs), not O(corpus tokens)."""

    def __init__(self, qterms: tuple[str, ...]):
        # sorted so the per-row float summation order matches the old
        # term-sorted groupby sum exactly (6-dp rounding stability)
        self.qterms = tuple(sorted(qterms))

    def __call__(self, batch: pa.Table) -> pa.Table:
        # session-11 vectorization: the old per-token Python loop was
        # O(corpus tokens) interpreter work in the hot tokenize pass;
        # the dictionary-coded kernel keeps everything in numpy
        # (equivalence pinned by tests/test_round3_queries.py)
        m = len(self.qterms)
        codes, doc_idx, vocab = _tok_codes(batch)
        nrows = batch.num_rows
        dl = np.bincount(doc_idx, minlength=nrows).astype(np.int64)
        slot = np.full(len(vocab), -1, dtype=np.int64)
        for j, t in enumerate(self.qterms):
            try:
                slot[vocab.index(t)] = j
            except ValueError:
                pass
        tok_slot = slot[codes]
        hit = tok_slot >= 0
        tf = np.zeros((nrows, m), dtype=np.int64)
        np.add.at(tf, (doc_idx[hit], tok_slot[hit]), 1)
        keep = (tf > 0).any(axis=1)
        has_tok = dl > 0
        ids = batch["doc_id"].to_numpy()[keep]
        n_keep = int(keep.sum())
        cols = {
            "doc_id": pa.array(np.r_[ids, [-1]], type=pa.int64()),
            "dl": pa.array(np.r_[dl[keep], [int(dl.sum())]]),
            "nd": pa.array(np.r_[np.zeros(n_keep, dtype=np.int64),
                                 [int(has_tok.sum())]]),
        }
        for j in range(m):
            df_j = int((tf[:, j] > 0).sum())
            cols[f"tf{j}"] = pa.array(np.r_[tf[keep, j], [df_j]])
        return pa.table(cols)


def bm25_topk(sf_dir: str) -> pa.Table:
    """BM25 disjunctive top-k over `documents` for a fixed query,
    rounded to 6 dp with (score desc, doc_id asc) tie-break.

    This is the SQL-checkable projection of the flagship engine: same
    formula (Lucene-style idf), same determinism contract, but the simple
    analyzer so DuckDB can replicate tokenization.

    Distributed end-to-end (the r2 scale fix — the old path pulled every
    hit row ``to_pandas`` and scored in driver pandas, O(matching docs)
    ≈ corpus for a common term):

    1. ONE tokenize pass materializes the narrow per-doc hit table
       (plus per-batch stats rows) into the OBJECT STORE — distributed
       blocks, never driver-held; Ray spills to disk under pressure.
    2. Stats reduce: per-batch partial sums over the hit table's stats
       rows → O(blocks) rows to the driver → (N, avgdl, df→idf).
    3. Scoring pass over the hit table: per-row score (fixed tf
       columns, no reassembly), 6-dp round, per-batch top-K by (score
       desc, doc_id asc) — the driver merge sees O(K·blocks) rows."""
    qterms = tuple(sorted(BM25_QUERY_TERMS))
    m = len(qterms)
    tf_cols = [f"tf{j}" for j in range(m)]
    empty = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "score": pa.array([], type=pa.float64()),
        "rank": pa.array([], type=pa.int64()),
    })

    spill = _docs(sf_dir).map_batches(
        _BM25Scan(qterms), batch_format="pyarrow", batch_size=512,
    ).materialize()

    def stats_partial(t: pa.Table) -> pa.Table:
        s = t.filter(pc.equal(t["doc_id"], -1))
        cols = {
            "nd": pa.array([int(pc.sum(s["nd"]).as_py() or 0)],
                           type=pa.int64()),
            "dl": pa.array([int(pc.sum(s["dl"]).as_py() or 0)],
                           type=pa.int64()),
        }
        for c in tf_cols:
            cols[c] = pa.array([int(pc.sum(s[c]).as_py() or 0)],
                               type=pa.int64())
        return pa.table(cols)

    st = spill.map_batches(
        stats_partial, batch_format="pyarrow").to_pandas()
    if "nd" not in st.columns:       # zero-row corpus: schema-dropped
        return empty
    n = int(st["nd"].sum())
    if n == 0:
        return empty
    avgdl = float(st["dl"].sum()) / n
    dfs = [int(st[c].sum()) for c in tf_cols]
    if not any(dfs):
        return empty
    idf = [float(bm25_idf(n, df)) for df in dfs]

    def score_batch(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["doc_id"], -1))
        out_schema = pa.schema([("doc_id", pa.int64()),
                                ("score", pa.float64())])
        if t.num_rows == 0:
            return out_schema.empty_table()
        dl = t["dl"].to_numpy()
        score = np.zeros(len(dl), dtype=np.float64)
        for j in range(m):
            score += idf[j] * bm25_wdl(t[tf_cols[j]].to_numpy(), dl,
                                       BM25_K1, BM25_B, avgdl)
        score_r = np.round(score, 6)
        ids = t["doc_id"].to_numpy()
        top = np.lexsort((ids, -score_r))[:BM25_K]
        return pa.table({
            "doc_id": pa.array(ids[top], type=pa.int64()),
            "score": pa.array(score_r[top], type=pa.float64()),
        })

    cand = spill.map_batches(
        score_batch, batch_format="pyarrow").to_pandas()
    if cand.empty:
        return empty
    cand = cand.sort_values(["score", "doc_id"], ascending=[False, True],
                            kind="mergesort").head(BM25_K)
    cand["rank"] = range(1, len(cand) + 1)
    return pa.table({
        "doc_id": pa.array(cand["doc_id"].tolist(), type=pa.int64()),
        "score": pa.array(cand["score"].tolist(), type=pa.float64()),
        "rank": pa.array(cand["rank"].tolist(), type=pa.int64()),
    })


def lang_distribution(sf_dir: str) -> rd.Dataset:
    from ..functions.tables import read_parquet_nometa

    return (
        read_parquet_nometa(f"{sf_dir}/documents.parquet", columns=["lang"])
        .groupby("lang")
        .aggregate(Count(alias_name="n"))
    )


JACCARD_N = 3
JACCARD_THRESHOLD = 0.5


def ngram_jaccard(sf_dir: str) -> pa.Table:
    """Exact word-3gram Jaccard near-dup pairs (SQL-oracled; the exact
    baseline the MinHash-LSH path approximates)."""
    from .dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_docs(sf_dir), n=JACCARD_N,
                               threshold=JACCARD_THRESHOLD)


def minhash_dedup(sf_dir: str) -> pa.Table:
    from .dedup import minhash_lsh_dedup

    return minhash_lsh_dedup(_docs(sf_dir), threshold=JACCARD_THRESHOLD)


def simhash_fps(sf_dir: str):
    from .dedup import simhash_fingerprints

    return simhash_fingerprints(_docs(sf_dir))


def langid_pred(sf_dir: str):
    from .textstats import language_id

    return language_id(_docs(sf_dir))


def token_count_stats(sf_dir: str):
    from .textstats import token_counts

    return token_counts(_docs(sf_dir))


def doc_fingerprints(sf_dir: str):
    from .textstats import fingerprints

    return fingerprints(_docs(sf_dir))


def ann_lsh(sf_dir: str) -> pa.Table:
    from .similarity import ann_lsh_topk

    return ann_lsh_topk(sf_dir, num_queries=ANN_NUM_QUERIES, k=ANN_K, nbits=4)


ANN_NUM_QUERIES = 5
ANN_K = 10


def ann_cosine_topk(sf_dir: str) -> pa.Table:
    """Brute-force cosine top-k: query vectors (vec_id < 5) broadcast via
    ray.put once, numpy matmul per batch, per-batch partial top-k, driver
    merge.  The baseline ANN path of SURVEY's training-data addenda; the
    scale path (LSH bucketing) is pipelines/similarity.py."""
    import pyarrow.parquet as pq

    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", ANN_NUM_QUERIES)],
    )
    if qt.num_rows == 0:             # empty corpus: no query vectors
        return pa.table({
            "query_id": pa.array([], type=pa.int64()),
            "vec_id": pa.array([], type=pa.int64()),
            "sim": pa.array([], type=pa.float64()),
            "rank": pa.array([], type=pa.int64()),
        })
    q_ids = qt["vec_id"].to_numpy()
    qm = np.stack([np.asarray(v, dtype=np.float64) for v in qt["embedding"].to_pylist()])
    qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    ref = ray.put((q_ids, qn))

    def sims(batch: pa.Table) -> pa.Table:
        q_ids_, qn_ = ray.get(ref)
        ids = batch["vec_id"].to_numpy()
        mask = ids >= ANN_NUM_QUERIES
        if not mask.any():
            return pa.table({
                "query_id": pa.array([], type=pa.int64()),
                "vec_id": pa.array([], type=pa.int64()),
                "sim": pa.array([], type=pa.float64()),
            })
        emb = batch["embedding"].combine_chunks()
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.chunk(0)
        flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        dim = qn_.shape[1]
        m = flat.reshape(-1, dim)[mask]
        ids = ids[mask]
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        s = mn @ qn_.T  # (rows, nq)
        # keep k + buffer per batch so rounding-boundary / exact-tie rows
        # can't be lost before the global (rounded sim, vec_id) ordering
        k = min(ANN_K + 32, len(ids))
        out_q, out_v, out_s = [], [], []
        for j, qid in enumerate(q_ids_):
            col = s[:, j]
            if len(ids) > k:
                top = np.lexsort((ids, -col))[:k]
            else:
                top = np.arange(len(ids))
            out_q += [int(qid)] * len(top)
            out_v += [int(x) for x in ids[top]]
            out_s += [float(x) for x in col[top]]
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    from ..functions.tables import read_parquet_nometa

    part = read_parquet_nometa(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"]) \
        .map_batches(sims, batch_format="pyarrow", batch_size=4096)
    pdf = part.to_pandas()
    pdf["sim_r"] = pdf["sim"].round(6)
    pdf = pdf.sort_values(["query_id", "sim_r", "vec_id"],
                          ascending=[True, False, True], kind="mergesort")
    pdf = pdf.groupby("query_id", sort=True).head(ANN_K)
    pdf["rank"] = pdf.groupby("query_id", sort=True).cumcount() + 1
    return pa.table({
        "query_id": pa.array(pdf["query_id"].tolist(), type=pa.int64()),
        "vec_id": pa.array(pdf["vec_id"].tolist(), type=pa.int64()),
        "sim": pa.array(pdf["sim_r"].tolist(), type=pa.float64()),
        "rank": pa.array(pdf["rank"].tolist(), type=pa.int64()),
    })


def media_features(sf_dir: str) -> rd.Dataset:
    """Multimodal plumbing pipeline (rows-only check): synthetic media
    rows synthesized INSIDE map_batches over the distributed documents
    read (no driver-side table load) → frame sampling (1→N, fixed-shape
    tensor column) → vectorized feature extraction.  Returns one feature
    row per image/audio item and per sampled video frame."""
    from ..stages.multimodal import (
        DEFAULT_MEDIA_BATCH_SIZE,
        FrameSampler,
        MediaFeatures,
        synth_media_table,
    )

    # the synthetic single-file source reads as few blocks; split so the
    # decode-shaped actor pool fans out (real media tables arrive as
    # many-block reads and skip this)
    media = _docs(sf_dir).repartition(8).map_batches(
        synth_media_table, batch_format="pyarrow",
    )
    # ONE pinned actor pool (the decode-shaped stage); the stateless
    # feature stage runs as tasks — chaining multiple fixed actor pools
    # can reserve every CPU and starve upstream tasks on small clusters
    frames = media.map_batches(
        FrameSampler,
        fn_constructor_kwargs=dict(frames_per_video=4, image_hw=(32, 32)),
        batch_format="pyarrow",
        batch_size=DEFAULT_MEDIA_BATCH_SIZE,
        concurrency=2,
    )
    feats = frames.map_batches(MediaFeatures(), batch_format="pyarrow",
                               batch_size=DEFAULT_MEDIA_BATCH_SIZE)
    return feats.select_columns(
        ["media_id", "doc_id", "kind", "frame_idx", "features"]
    )


_KIND_CYCLE = ("image", "audio", "video")


def media_features_meta(sf_dir: str) -> pa.Table:
    """SQL-oracled metadata margin of the media_features pipeline
    (round 4, VERDICT item 7): runs the REAL distributed synth →
    FrameSampler → MediaFeatures pipeline and aggregates per ORIGINAL
    kind (media_id % 3 cycle) — media count, feature-row count (the
    1→N video fan-out), synth payload byte sums, null-feature count and
    the fixed-shape feature-length bounds.  DuckDB recomputes every
    number from the documents table + the pipeline's documented
    contract, so the only thing left rows-only in media_features is the
    tensor VALUES themselves."""
    from ray.data.aggregate import Max, Min

    feats = media_features(sf_dir)

    def fpartial(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "kind": pa.array([], type=pa.string()),
            "n_rows": pa.array([], type=pa.int64()),
            "n_media": pa.array([], type=pa.int64()),
            "n_null_feat": pa.array([], type=pa.int64()),
            "min_feat_len": pa.array([], type=pa.int64()),
            "max_feat_len": pa.array([], type=pa.int64()),
        })
        if t.num_rows == 0:
            return empty
        mid = t["media_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = mid % 3
        fi = t["frame_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        flen_arr = pc.list_value_length(t["features"])
        nulls = pc.is_null(t["features"]).to_numpy(zero_copy_only=False)
        flen = np.asarray(pc.fill_null(flen_arr, -1), dtype=np.int64)
        rows = []
        for ki in range(3):
            sel = k == ki
            if not sel.any():
                continue
            fl = flen[sel & ~nulls]
            rows.append({
                "kind": _KIND_CYCLE[ki],
                "n_rows": int(sel.sum()),
                # every surviving media emits exactly one frame_idx==0
                # row (j=0 → frame 0), so this is an exact distinct
                # count without cross-batch state
                "n_media": int((sel & (fi == 0)).sum()),
                "n_null_feat": int((sel & nulls).sum()),
                "min_feat_len": int(fl.min()) if fl.size else 1 << 62,
                "max_feat_len": int(fl.max()) if fl.size else -1,
            })
        if not rows:
            return empty
        return pa.Table.from_pylist(rows, schema=empty.schema)

    agg = (
        feats.map_batches(fpartial, batch_format="pyarrow")
        .groupby("kind")
        .aggregate(Sum("n_rows", alias_name="n_rows"),
                   Sum("n_media", alias_name="n_media"),
                   Sum("n_null_feat", alias_name="n_null_feat"),
                   Min("min_feat_len", alias_name="min_feat_len"),
                   Max("max_feat_len", alias_name="max_feat_len"))
        .to_pandas()
    )

    def dpartial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = np.asarray(
            pc.fill_null(pc.binary_length(t["text"]), 0), dtype=np.int64)
        k = ids % 3
        return pa.table({
            "kind": pa.array([_KIND_CYCLE[i] for i in range(3)],
                             type=pa.string()),
            "payload_bytes": pa.array(
                [int(nb[k == i].sum()) for i in range(3)],
                type=pa.int64()),
        })

    pb = (
        _docs(sf_dir).map_batches(dpartial, batch_format="pyarrow")
        .groupby("kind")
        .aggregate(Sum("payload_bytes", alias_name="payload_bytes"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    agg = typed_pandas(agg, {
        "kind": "object", "n_rows": "int64", "n_media": "int64",
        "n_null_feat": "int64", "min_feat_len": "int64",
        "max_feat_len": "int64"})
    pb = typed_pandas(pb, {"kind": "object", "payload_bytes": "int64"})
    out = agg.merge(pb, on="kind").sort_values("kind")
    return pa.table({
        "kind": pa.array(out["kind"].tolist(), type=pa.string()),
        "n_media": pa.array(out["n_media"].astype("int64").tolist(),
                            type=pa.int64()),
        "n_rows": pa.array(out["n_rows"].astype("int64").tolist(),
                           type=pa.int64()),
        "payload_bytes": pa.array(
            out["payload_bytes"].astype("int64").tolist(), type=pa.int64()),
        "n_null_feat": pa.array(
            out["n_null_feat"].astype("int64").tolist(), type=pa.int64()),
        "min_feat_len": pa.array(
            out["min_feat_len"].astype("int64").tolist(), type=pa.int64()),
        "max_feat_len": pa.array(
            out["max_feat_len"].astype("int64").tolist(), type=pa.int64()),
    })


def media_features_real_meta(sf_dir: str) -> pa.Table:
    """SQL-oracled metadata margin of media_features_real: runs the
    real-decode pipeline (PNG / WAV / AVI, functions/media_codecs) and
    reports per-kind row counts and feature-length bounds; the oracle
    recomputes them from documents + the pipeline contract — every
    synthesized payload must decode (n_rows == docs of that kind) and
    every feature vector must have the fixed length."""
    from ray.data.aggregate import Max, Min

    feats = media_features_real(sf_dir)

    def fpartial(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "kind": pa.array([], type=pa.string()),
            "n_rows": pa.array([], type=pa.int64()),
            "min_feat_len": pa.array([], type=pa.int64()),
            "max_feat_len": pa.array([], type=pa.int64()),
        })
        if t.num_rows == 0:
            return empty
        kind = t["kind"].to_pylist()
        flen = np.asarray(
            pc.fill_null(pc.list_value_length(t["features"]), -1),
            dtype=np.int64)
        rows = []
        for kname in _KIND_CYCLE:
            sel = np.array([x == kname for x in kind])
            if not sel.any():
                continue
            rows.append({
                "kind": kname,
                "n_rows": int(sel.sum()),
                "min_feat_len": int(flen[sel].min()),
                "max_feat_len": int(flen[sel].max()),
            })
        if not rows:
            return empty
        return pa.Table.from_pylist(rows, schema=empty.schema)

    from ..functions.tables import typed_pandas
    out = typed_pandas(
        feats.map_batches(fpartial, batch_format="pyarrow")
        .groupby("kind")
        .aggregate(Sum("n_rows", alias_name="n_rows"),
                   Min("min_feat_len", alias_name="min_feat_len"),
                   Max("max_feat_len", alias_name="max_feat_len")),
        {"kind": "object", "n_rows": "int64",
         "min_feat_len": "int64", "max_feat_len": "int64"},
    ).sort_values("kind")
    return pa.table({
        "kind": pa.array(out["kind"].tolist(), type=pa.string()),
        "n_rows": pa.array(out["n_rows"].astype("int64").tolist(),
                           type=pa.int64()),
        "min_feat_len": pa.array(
            out["min_feat_len"].astype("int64").tolist(), type=pa.int64()),
        "max_feat_len": pa.array(
            out["max_feat_len"].astype("int64").tolist(), type=pa.int64()),
    })


SAMPLE_RATE = 0.25
TOP_PER_LANG_K = 10
QUANTILE_PS = (0.5, 0.9, 0.99, 0.999)


def doc_length_quantiles(sf_dir: str) -> pa.Table:
    """EXACT discrete quantiles of doc length (n_chars) WITHOUT a
    distributed sort: each batch emits a sparse (value, count)
    histogram partial — integers over a bounded domain — and the merge
    is a tiny value-keyed sum + one cumulative scan on the driver.
    O(distinct values) moves instead of O(rows); the standard shape for
    distribution stats over 10^12 rows (quantile_disc semantics: the
    smallest value with cumulative count >= ceil(p·n))."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["n_chars"].to_numpy()
        vals, counts = np.unique(v, return_counts=True)
        return pa.table({
            "v": pa.array(vals.astype(np.int64)),
            "c": pa.array(counts.astype(np.int64)),
        })

    from ..functions.tables import read_parquet_nometa

    hist = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    hist = typed_pandas(hist, {"v": "int64", "c": "int64"})
    if len(hist) == 0:               # zero-row corpus: no distribution
        return pa.table({
            "p": pa.array([], type=pa.float64()),
            "n_chars": pa.array([], type=pa.int64()),
        })
    hist = hist.sort_values("v")
    vals = hist["v"].to_numpy()
    cum = hist["c"].to_numpy().cumsum()
    n = int(cum[-1]) if len(cum) else 0
    out_p, out_v = [], []
    for p in QUANTILE_PS:
        rank = int(np.ceil(p * n))
        j = int(np.searchsorted(cum, max(rank, 1)))
        out_p.append(p)
        out_v.append(int(vals[min(j, len(vals) - 1)]))
    return pa.table({
        "p": pa.array(out_p, type=pa.float64()),
        "n_chars": pa.array(out_v, type=pa.int64()),
    })


def corpus_sample(sf_dir: str) -> rd.Dataset:
    """Deterministic hash sampling — the training-data subsetting
    primitive: keep rows where ``mix64(doc_id) % 2^16 < rate·2^16``
    (the exact rule the build's sampled-stats pass uses,
    build.py:_sample_mask).  Membership is a pure function of doc_id,
    so every stage/retry/cluster-size sees the same sample — unlike
    ``ds.random_sample`` there is no seed plumbing and re-runs are
    reproducible by construction.  Pure per-batch filter: no shuffle."""
    from .build import _sample_mask

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(_sample_mask(ids, SAMPLE_RATE)))

    from ..functions.tables import read_parquet_nometa

    return read_parquet_nometa(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    ).map_batches(f, batch_format="pyarrow")


def top_docs_per_lang(sf_dir: str) -> pa.Table:
    """Grouped top-k without a global sort: each batch keeps only its
    own top-K rows per lang (partial top-k combiner), so the driver
    merge sees at most K × langs × blocks rows instead of the corpus —
    the standard scale shape for 'best N per group' selection.  Order:
    n_chars DESC, doc_id ASC."""
    from ..functions.tables import read_parquet_nometa

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = batch.to_pandas()
        df = df.sort_values(["lang", "n_chars", "doc_id"],
                            ascending=[True, False, True], kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby("lang", sort=False).head(TOP_PER_LANG_K),
            preserve_index=False)

    from ..functions.tables import typed_pandas
    parts = typed_pandas(
        read_parquet_nometa(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "lang", "n_chars"],
        ).map_batches(partial, batch_format="pyarrow"),
        {"doc_id": "int64", "lang": "object", "n_chars": "int64"})
    parts = parts.sort_values(["lang", "n_chars", "doc_id"],
                              ascending=[True, False, True],
                              kind="mergesort")
    out = parts.groupby("lang", sort=True).head(TOP_PER_LANG_K).copy()
    out["rank"] = out.groupby("lang", sort=True).cumcount() + 1
    return pa.table({
        "lang": pa.array(out["lang"].tolist(), type=pa.string()),
        "doc_id": pa.array(out["doc_id"].tolist(), type=pa.int64()),
        "n_chars": pa.array(out["n_chars"].tolist(), type=pa.int64()),
        "rank": pa.array(out["rank"].tolist(), type=pa.int64()),
    })


FT_SIMPLE_QUERIES = ("data processing pipeline", "stream window merge",
                     "information")
FT_SIMPLE_K = 10


def _retrieve_tie_complete(idx, q: str, k: int, buffer: int = 50):
    """Retrieve matches for ``q`` with a tie-group-complete cutoff.

    Retrieval is by EXACT score; the gate ranks by 6-dp-ROUNDED score
    with doc_id tie-break.  Grow the retrieved set until the rounded
    score of the LAST retrieved match is strictly below the rounded
    k-th score — then no unretrieved doc (exact score <= last's,
    rounding monotone) can belong to the top-K tie group, so the cutoff
    cannot orphan a lower-doc_id tie member.  Shared by the en and
    simple fulltext gates (the round-4 verdict's latent rounded-tie
    flake in the fixed ``K + 50`` cutoff)."""
    need = k + buffer
    while True:
        ms = idx.search(q, max_results=need, with_spans=False)
        if len(ms.matches) < need:
            return ms.matches  # retrieved every match
        rounded = sorted((round(m.score, 6) for m in ms.matches),
                         reverse=True)
        if round(ms.matches[-1].score, 6) < rounded[k - 1]:
            return ms.matches  # tie group at rank K fully retrieved
        need *= 4


def fulltext_topk_simple(sf_dir: str) -> pa.Table:
    """The FLAGSHIP ENGINE under the SQL value-hash gate: build a real
    on-disk index (docs catalog, bucket hash-shuffle, varint posting
    blocks) with the ``simple`` analyzer — whose tokenization DuckDB can
    reproduce exactly, unlike Porter — and answer a fixed query set
    through the standard TAAT search path.  The oracle recomputes BM25
    end-to-end from raw text, so a bug anywhere in tokenize → shuffle →
    encode → decode → score flips the hash.

    Ranks are assigned on the 6-dp ROUNDED score in BOTH implementations
    so float noise beyond the comparison precision cannot flip orders;
    ``max_results`` is oversized then cut at K after re-ranking so
    boundary ties resolve identically."""
    from .build import build_index
    from .query import BM25Index

    with spill_dir("ft_simple_") as d:
        build_index(f"{sf_dir}/documents.parquet", d, analyzer="simple",
                    lang_col="lang", num_buckets=16, sample_rate=1.0)
        idx = BM25Index(d)
        out_q, out_d, out_s = [], [], []
        for q in FT_SIMPLE_QUERIES:
            for m in _retrieve_tie_complete(idx, q, FT_SIMPLE_K):
                out_q.append(q)
                out_d.append(m.doc_id)
                out_s.append(round(m.score, 6))
    import pandas as pd

    df = pd.DataFrame({"query": out_q, "doc_id": out_d, "score": out_s})
    df = df.sort_values(["query", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
    df["rank"] = df.groupby("query", sort=True).cumcount() + 1
    df = df[df["rank"] <= FT_SIMPLE_K]
    return pa.table({
        "query": pa.array(df["query"].tolist(), type=pa.string()),
        "doc_id": pa.array(df["doc_id"].tolist(), type=pa.int64()),
        "score": pa.array(df["score"].tolist(), type=pa.float64()),
        "rank": pa.array(df["rank"].tolist(), type=pa.int64()),
    })


UNIT_QUERIES = FT_SIMPLE_QUERIES
UNIT_K = 10
UNIT_SIZE = 400
UNIT_STRIDE = 300


def unit_topk(sf_dir: str) -> pa.Table:
    """N:1 unit-per-document fulltext gate (round 5): every document
    fans into chunk UNITS (pipelines/units.py — the reference's
    page-per-PDF shape, composite ID ``(doc_idx << 32) | unit_idx``,
    bleve_pdf.go:57), the regular build → TAAT query path runs at unit
    granularity, and hits decode back to (doc_id, unit_idx).  The
    oracle recomputes the chunking AND end-to-end BM25 over the units
    in DuckDB, so the composite-ID arithmetic, the 1→N fan-out and the
    whole index path are all under the driver's value hash.  Rank ties
    are handled exactly as the other fulltext gates
    (_retrieve_tie_complete + 6-dp rounded re-rank)."""
    from .build import build_index
    from .query import BM25Index
    from .units import chunk_units, split_unit_id

    with spill_dir("ft_units_") as d:
        units = chunk_units(f"{sf_dir}/documents.parquet",
                            size=UNIT_SIZE, stride=UNIT_STRIDE)
        build_index(units, d, analyzer="simple", id_col="unit_id",
                    lang_col="lang", num_buckets=16, sample_rate=1.0)
        idx = BM25Index(d)
        out_q, out_u, out_s = [], [], []
        for q in UNIT_QUERIES:
            for m in _retrieve_tie_complete(idx, q, UNIT_K):
                out_q.append(q)
                out_u.append(m.doc_id)
                out_s.append(round(m.score, 6))
    import pandas as pd

    df = pd.DataFrame({"query": out_q, "unit_id": out_u, "score": out_s})
    df = df.sort_values(["query", "score", "unit_id"],
                        ascending=[True, False, True], kind="mergesort")
    df["rank"] = df.groupby("query", sort=True).cumcount() + 1
    df = df[df["rank"] <= UNIT_K]
    split = [split_unit_id(u) for u in df["unit_id"]]
    return pa.table({
        "query": pa.array(df["query"].tolist(), type=pa.string()),
        "doc_id": pa.array([s[0] for s in split], type=pa.int64()),
        "unit_idx": pa.array([s[1] for s in split], type=pa.int64()),
        "score": pa.array(df["score"].tolist(), type=pa.float64()),
        "rank": pa.array(df["rank"].tolist(), type=pa.int64()),
    })


def media_inventory(sf_dir: str) -> rd.Dataset:
    """SQL-checkable projection of the multimodal plumbing: the same
    synth → FrameSampler stages as media_features, but returning only
    the metadata columns (media identity, output kind, sampled
    frame_idx).  This puts the 1→N frame expansion and the kind-cycle
    synthesis under the driver's hard value-hash gate; the tensor
    features stay rows-only (media_features)."""
    from ..stages.multimodal import (
        DEFAULT_MEDIA_BATCH_SIZE,
        FrameSampler,
        synth_media_table,
    )

    media = _docs(sf_dir).repartition(8).map_batches(
        synth_media_table, batch_format="pyarrow",
    )
    frames = media.map_batches(
        FrameSampler,
        fn_constructor_kwargs=dict(frames_per_video=4, image_hw=(8, 8)),
        batch_format="pyarrow",
        batch_size=DEFAULT_MEDIA_BATCH_SIZE,
        concurrency=2,
    )

    def meta(t: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": t["media_id"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "kind": t["kind"],
            "frame_idx": t["frame_idx"].cast(pa.int64()),
        })

    return frames.map_batches(meta, batch_format="pyarrow")


def ws_token_counts(sf_dir: str) -> rd.Dataset:
    """Whitespace token counts per doc — the SQL-expressible half of
    token_count_stats, exposed separately so the driver can value-check
    it against DuckDB (the BPE-piece counts use a lookahead regex RE2
    cannot run and stay rows-only)."""
    def f(batch: pa.Table) -> pa.Table:
        # count maximal non-whitespace runs without materializing the
        # token lists — RE2 \S is ASCII, matching the DuckDB oracle's
        # regexp_split_to_array('\s+') semantics exactly
        n = pc.count_substring_regex(batch["text"], r"[^\t\n\v\f\r ]+")
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "n_ws_tokens": pc.coalesce(n, pa.scalar(0, pa.int32())).cast(
                pa.int64()),
        })

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


def ann_ivf(sf_dir: str) -> pa.Table:
    from .similarity import ann_ivf_topk

    return ann_ivf_topk(sf_dir, num_queries=ANN_NUM_QUERIES, k=ANN_K)


EMB_DUP_THRESHOLD = 0.4
EMB_LSH_BANDS = 4
EMB_LSH_NBITS = 6
EMB_LSH_SEED = 9
EMB_LSH_MAX_BUCKET = 4096


def embedding_dup_pairs_lsh(sf_dir: str) -> pa.Table:
    from .similarity import embedding_dup_pairs_lsh as _e

    return _e(sf_dir, threshold=EMB_DUP_THRESHOLD,
              n_bands=EMB_LSH_BANDS, nbits=EMB_LSH_NBITS,
              seed=EMB_LSH_SEED, max_bucket=EMB_LSH_MAX_BUCKET)


def embedding_dup_pairs(sf_dir: str) -> pa.Table:
    from .similarity import embedding_dup_pairs as _e

    return _e(sf_dir, threshold=EMB_DUP_THRESHOLD)


SEMDEDUP_EPS = 0.35
SEMDEDUP_N_CLUSTERS = 16


def semantic_dedup(sf_dir: str) -> rd.Dataset:
    from .similarity import semantic_dedup as _s

    return _s(sf_dir, eps=SEMDEDUP_EPS, n_clusters=SEMDEDUP_N_CLUSTERS)


def windowed_event_counts(sf_dir: str) -> rd.Dataset:
    from .events import windowed_event_counts as _w

    return _w(sf_dir)


def user_sessions(sf_dir: str) -> rd.Dataset:
    from .events import user_sessions as _u

    return _u(sf_dir)


def chunk_dedup_docs(sf_dir: str) -> rd.Dataset:
    """C4-style corpus-level sequence dedup over documents (dedup.py:
    chunk_dedup): one surviving copy of each distinct full-length
    8-word segment, docs reassembled from kept segments."""
    from .dedup import chunk_dedup

    return chunk_dedup(_docs(sf_dir))


def gopher_quality_flags(sf_dir: str) -> rd.Dataset:
    """Gopher-rule quality stats + keep flag per doc (integer-exact)."""
    from .textstats import gopher_quality

    return gopher_quality(_docs(sf_dir))


# per-language target rates for the stratified sample (training-mix
# rebalancing: downsample the head language, keep the tail), shared
# verbatim with the SQL oracle
STRATA_RATES = {"en": 0.125, "de": 0.5, "fr": 0.5}
STRATA_DEFAULT_RATE = 0.25


def stratified_sample(sf_dir: str) -> rd.Dataset:
    """Deterministic per-group (language) hash sampling — the standard
    training-mix rebalance: each lang keeps its own rate, membership is
    a pure function of doc_id (splitmix64), so the sample is
    reproducible at any parallelism and composable with corpus_sample.
    Pure per-batch filter, no shuffle."""
    from .build import _sample_mask
    from ..functions.tables import read_parquet_nometa

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        langs = batch["lang"].to_pylist()
        keep = np.zeros(len(ids), dtype=bool)
        for lang in set(langs):
            rate = STRATA_RATES.get(lang, STRATA_DEFAULT_RATE)
            sel = np.asarray([la == lang for la in langs])
            keep[sel] = _sample_mask(ids[sel], rate)
        return batch.filter(pa.array(keep))

    return read_parquet_nometa(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    ).map_batches(f, batch_format="pyarrow")


def curated_chunks(sf_dir: str) -> rd.Dataset:
    """The COMPOSITE curation pipeline as a gate query: exact dedup →
    Gopher quality gate → per-lang stratified sampling → fixed-window
    chunking (pipelines/curate.py).  The oracle recomputes the full
    composition in DuckDB, so stage interactions — not just the pieces
    — sit under the value-hash gate."""
    from .curate import curate_chunks

    return curate_chunks(
        f"{sf_dir}/documents.parquet",
        rates=STRATA_RATES, default_rate=STRATA_DEFAULT_RATE,
    )


def repetition_stats(sf_dir: str) -> rd.Dataset:
    """Gopher-style repetition signals (count-fraction adaptation of the
    duplicate-n-gram rules): per doc, total and max-occurrence counts of
    word bigrams and trigrams, plus an integer 'repetitive' flag
    (a *repeated* n-gram dominates: max>=2 AND max_bigram > 20% of
    bigrams, OR max>=2 AND max_trigram > 10% of trigrams — the max>=2
    guard keeps short all-distinct docs out).
    Pure per-batch map, integer-exact vs the SQL oracle."""

    import pandas as pd
    import pyarrow.compute as pc

    def _gram_counts(row: np.ndarray, code: np.ndarray, n: int):
        """Exact per-row totals and max multiplicity of (row, code)
        pairs, via one lexsort + run-length pass (no Python loop)."""
        total = np.bincount(row, minlength=n).astype(np.int64)
        mx = np.zeros(n, dtype=np.int64)
        if len(row):
            order = np.lexsort((code, row))
            r, c = row[order], code[order]
            new = np.empty(len(r), dtype=bool)
            new[0] = True
            new[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            starts = np.flatnonzero(new)
            counts = np.diff(np.append(starts, len(r)))
            np.maximum.at(mx, r[starts], counts)
        return total, mx

    def f(batch: pa.Table) -> pa.Table:
        n = len(batch)
        col = batch["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # split_pattern(" ") matches str.split(" "): "" -> [""], runs of
        # spaces keep empties — identical to the SQL string_split oracle
        wl = pc.split_pattern(pc.fill_null(col, ""), pattern=" ")
        length = np.asarray(pc.list_value_length(wl), dtype=np.int64)
        row_id = np.repeat(np.arange(n, dtype=np.int64), length)
        words = wl.flatten().to_numpy(zero_copy_only=False)
        codes = pd.factorize(words)[0].astype(np.int64)
        vocab = int(codes.max()) + 1 if len(codes) else 1

        # consecutive word pairs that stay inside one row
        same2 = row_id[:-1] == row_id[1:] if len(row_id) else np.zeros(0, bool)
        pair_all = codes[:-1] * vocab + codes[1:] if len(codes) else codes
        nb, mb = _gram_counts(row_id[:-1][same2], pair_all[same2], n)

        # trigrams: row_id is sorted, so ends-equal implies middle-equal
        same3 = row_id[:-2] == row_id[2:] if len(row_id) > 1 else np.zeros(0, bool)
        pair_codes = (pd.factorize(pair_all)[0].astype(np.int64)
                      if len(pair_all) else pair_all)
        tri_all = (pair_codes[:-1] * vocab + codes[2:]
                   if len(codes) > 1 else codes[:0])
        nt, mt = _gram_counts(row_id[:-2][same3], tri_all[same3], n)
        rep = (((mb >= 2) & (mb * 5 > nb))
               | ((mt >= 2) & (mt * 10 > nt))).astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "n_bigrams": pa.array(nb, type=pa.int64()),
            "max_bigram_count": pa.array(mb, type=pa.int64()),
            "n_trigrams": pa.array(nt, type=pa.int64()),
            "max_trigram_count": pa.array(mt, type=pa.int64()),
            "repetitive": pa.array(rep, type=pa.int64()),
        })

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


# ------------------------------------------------------- round-3 additions

BIGRAM_MIN_COUNT = 5
BIGRAM_TOPK = 200
CHUNK_SIZE = 500
CHUNK_STRIDE = 400
TFIDF_TOPK = 5


def bigram_counts(sf_dir: str) -> pa.Table:
    """Corpus-wide word-bigram counts (LM / tokenizer-training shape):
    fully Arrow-vectorized per batch — ONE split_pattern_regex, ONE
    elementwise join over the shifted flat token array, value_counts as
    the per-batch combiner — so the groupby shuffle moves per-batch
    UNIQUE bigrams, not the token stream.  Distributed ≥min filter +
    per-batch top-K before the driver merge: the driver sees
    O(K × blocks) rows, never the bigram vocabulary."""

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"bigram": pa.array([], type=pa.string()),
                          "n": pa.array([], type=pa.int64())})
        if t.num_rows == 0:
            return empty
        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(t["text"], "")),
            pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        n = len(flat)
        if n < 2:
            return empty
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        bounds = np.cumsum(lens[:-1], dtype=np.int64)
        # dictionary-encode once: bigram keys become packed int64 pairs
        # of vocab codes, so counting is an integer np.unique and the
        # bigram STRINGS are materialized only for the per-batch UNIQUE
        # pairs (the tfidf packed-key precedent), never per token
        de = flat.dictionary_encode()
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = de.dictionary
        V = len(vocab)
        try:
            empty_code = vocab.index("").as_py()
        except Exception:
            empty_code = -1
        # pair (i, i+1) is valid when both tokens are non-empty (split
        # empties occur only at doc edges, so interior adjacency matches
        # the SQL's list_filter-then-index semantics) and i+1 is not the
        # first token of the next doc
        ok = (codes[:-1] != empty_code) & (codes[1:] != empty_code)
        # guard zero-length lists: a 0 in bounds would wrap ok[-1]
        bounds = bounds[(bounds > 0) & (bounds <= n - 1)]
        ok[bounds - 1] = False
        key = codes[:-1][ok] * V + codes[1:][ok]
        if key.size == 0:
            return empty
        uniq, counts = np.unique(key, return_counts=True)
        a = pa.array(uniq // V, type=pa.int64())
        b = pa.array(uniq % V, type=pa.int64())
        big = pc.binary_join_element_wise(
            vocab.take(a), vocab.take(b), " ")
        return pa.table({
            "bigram": big,
            "n": pa.array(counts.astype(np.int64), type=pa.int64()),
        })

    def local_topk(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["n"], BIGRAM_MIN_COUNT))
        if t.num_rows <= BIGRAM_TOPK:
            return t
        df = t.to_pandas().sort_values(
            ["n", "bigram"], ascending=[False, True], kind="mergesort")
        return pa.Table.from_pandas(df.head(BIGRAM_TOPK),
                                    preserve_index=False)

    agg = (
        _docs(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(local_topk, batch_format="pyarrow")
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    agg = typed_pandas(agg, {"bigram": "object", "n": "int64"})
    agg = agg.sort_values(["n", "bigram"], ascending=[False, True],
                          kind="mergesort").head(BIGRAM_TOPK)
    return pa.table({
        "bigram": pa.array(agg["bigram"].tolist(), type=pa.string()),
        "n": pa.array(agg["n"].astype("int64").tolist(), type=pa.int64()),
    })


def doc_chunks(sf_dir: str) -> rd.Dataset:
    """Fixed-window document chunking (the training-data slicer): char
    windows of CHUNK_SIZE every CHUNK_STRIDE, 1→N flat-map shape.  The
    per-chunk substring copy IS the output payload, so the per-chunk
    loop is O(output bytes), not avoidable overhead; window arithmetic
    is vectorized."""

    def chunk(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        n_chars = np.fromiter((len(x or "") for x in texts),
                              dtype=np.int64, count=len(texts))
        # stop once the previous chunk reaches the doc end — a trailing
        # window fully contained in its predecessor duplicates tail
        # text (round-4 advice; matches curate.py:_chunk_batch)
        n_chunks = np.where(
            n_chars == 0, 0,
            np.where(n_chars <= CHUNK_SIZE, 1,
                     1 + (n_chars - CHUNK_SIZE + CHUNK_STRIDE - 1)
                     // CHUNK_STRIDE))
        out_ids: list[int] = []
        out_cid: list[int] = []
        out_start: list[int] = []
        out_text: list[str] = []
        for did, text, k in zip(ids, texts, n_chunks):
            for c in range(int(k)):
                start = c * CHUNK_STRIDE
                out_ids.append(int(did))
                out_cid.append(c)
                out_start.append(start)
                out_text.append(text[start:start + CHUNK_SIZE])
        return pa.table({
            "doc_id": pa.array(out_ids, type=pa.int64()),
            "chunk_id": pa.array(out_cid, type=pa.int64()),
            "chunk_start": pa.array(out_start, type=pa.int64()),
            "chunk_text": pa.array(out_text, type=pa.string()),
        })

    return _docs(sf_dir).map_batches(chunk, batch_format="pyarrow")


def _tok_codes(t: pa.Table):
    """Batch tokens as (dictionary code, doc index) int arrays —
    dictionary_encode keeps the token strings at VOCAB cardinality;
    nothing token-stream-sized ever becomes a Python object."""
    toks = pc.split_pattern_regex(
        pc.utf8_lower(t["text"]), pattern="[^a-z0-9]+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    de = toks.flatten().dictionary_encode()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = de.dictionary.to_pylist()
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    try:
        empty_code = vocab.index("")
    except ValueError:
        empty_code = -1
    if empty_code >= 0:
        keep = codes != empty_code
        codes, doc_idx = codes[keep], doc_idx[keep]
    return codes, doc_idx, vocab


_tfidf_bucket_memo: dict[int, dict[str, int]] = {}


TFIDF_BUCKET_TARGET_BYTES = 64 << 20  # per-bucket pair-spill budget


def _tfidf_num_buckets(sf_dir: str) -> int:
    """Derive the tf-idf bucket count from input size so per-bucket
    task reads stay bounded at ANY corpus size (the round-4 verdict's
    hardcoded-16 knob): the (doc, term, tf) pair spill is ≈ the input
    parquet bytes (dict-encoded terms, per-doc uniqued tf), so buckets
    = next power of two of input_bytes / TFIDF_BUCKET_TARGET_BYTES,
    floored at 16 (the small-corpus behavior)."""
    import glob as _g
    import os

    path = f"{sf_dir}/documents.parquet"
    if os.path.isdir(path):
        sz = sum(os.path.getsize(f) for f in _g.glob(f"{path}/**/*.parquet",
                                                     recursive=True))
    else:
        sz = os.path.getsize(path)
    need = max(1.0, sz / TFIDF_BUCKET_TARGET_BYTES)
    return max(16, 1 << int(np.ceil(np.log2(need))))


def tfidf_topk(sf_dir: str, num_buckets: int | None = None) -> pa.Table:
    """Per-doc top-K tf-idf terms (feature extraction for filtering /
    clustering) with NO vocabulary-sized driver state (round 4; the r3
    version broadcast the whole term→df dict via ray.put — multi-GB at
    a web corpus's 10⁸–10⁹ raw-token vocabulary):

    1. one tokenize pass emits (doc_id, term, tf) pairs spilled to
       parquet hash-partitioned by ``fnv1a64(term) % B`` — every row of
       a term lands in exactly one bucket, so each bucket task computes
       its terms' df LOCALLY (a bincount, no groupby shuffle) and
       scores its rows in place; per-batch distinct-doc counts ride in
       a sentinel partition and reduce to the single int n_total;
    2. scored rows re-spill hash-partitioned by doc, and one task per
       doc-bucket keeps each doc's top-K (vectorized sort, (score desc,
       term asc) ties).

    Two narrow disk-mediated shuffles (the hash_join pattern,
    functions/joins.py), O(1) driver state, result rows O(K × docs)."""
    import os

    import pyarrow.parquet as pq

    from ..functions.hashing import fnv1a64_str
    from ..functions.spill import (BUCKET_COL, bucket_exchange, bucket_path,
                                   spill_bucketed)

    if num_buckets is None:
        num_buckets = _tfidf_num_buckets(sf_dir)

    empty_out = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "term": pa.array([], type=pa.string()),
                          "score": pa.array([], type=pa.float64()),
                          "rank": pa.array([], type=pa.int64())})
    nd_bucket = num_buckets  # sentinel partition: per-batch doc counts

    def pairs_batch(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "term": pa.array([], type=pa.string()),
                          "tf": pa.array([], type=pa.int64()),
                          BUCKET_COL: pa.array([], type=pa.int32())})
        codes, doc_idx, vocab = _tok_codes(t)
        if codes.size == 0:
            return empty
        V = len(vocab)
        uniq, tf = np.unique(doc_idx * V + codes, return_counts=True)
        d = uniq // V
        c = uniq % V
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # per-worker memo: vocab repeats across batches (Zipf), so the
        # Python-level fnv runs ~once per unique term per worker; capped
        # so a web-scale tail can't grow the dict unboundedly
        memo = _tfidf_bucket_memo.setdefault(num_buckets, {})
        def _vb(v):
            b_ = memo.get(v)
            if b_ is None:
                b_ = fnv1a64_str(v) % num_buckets
                if len(memo) < (1 << 20):
                    memo[v] = b_
            return b_
        vb = np.fromiter((_vb(v) for v in vocab), dtype=np.int32, count=V)
        term_arr = pa.array(vocab, type=pa.string()).take(
            pa.array(c, type=pa.int64()))
        n_docs = int(np.unique(doc_idx).size)
        body = pa.table({
            "doc_id": pa.array(ids[d], type=pa.int64()),
            "term": term_arr,
            "tf": pa.array(tf.astype(np.int64), type=pa.int64()),
            BUCKET_COL: pa.array(vb[c], type=pa.int32()),
        })
        # sentinel row: doc_id column carries this batch's distinct-doc
        # count into the nd partition (docs never span batches)
        sent = pa.table({
            "doc_id": pa.array([n_docs], type=pa.int64()),
            "term": pa.array([""], type=pa.string()),
            "tf": pa.array([0], type=pa.int64()),
            BUCKET_COL: pa.array([nd_bucket], type=pa.int32()),
        })
        return pa.concat_tables([body, sent])

    def score_bucket(b: int, t: pa.Table, n_total: int) -> pa.Table | None:
        if b == nd_bucket:
            return None
        de = t["term"].combine_chunks().dictionary_encode()
        if isinstance(de, pa.ChunkedArray):
            de = de.combine_chunks()
        c = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # a term's (doc, term) rows all live in THIS bucket and are
        # unique per doc, so local row counts ARE global df
        df_local = np.bincount(c).astype(np.float64)
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        score = np.round(tf * np.log(n_total / df_local[c]), 6)
        return pa.table({
            "doc_id": t["doc_id"],
            "term": t["term"],
            "score": pa.array(score, type=pa.float64()),
        })

    def topk_bucket(_b: int, t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(["doc_id", "score", "term"],
                            ascending=[True, False, True],
                            kind="mergesort")
        df["rank"] = df.groupby("doc_id", sort=False).cumcount() + 1
        df = df[df["rank"] <= TFIDF_TOPK]
        return pa.table({
            "doc_id": pa.array(df["doc_id"].to_numpy(), type=pa.int64()),
            "term": pa.array(df["term"].tolist(), type=pa.string()),
            "score": pa.array(df["score"].to_numpy(), type=pa.float64()),
            "rank": pa.array(df["rank"].to_numpy(), type=pa.int64()),
        })

    with spill_dir("tfidf_") as work:
        pairs = spill_bucketed(
            _docs(sf_dir).map_batches(pairs_batch, batch_format="pyarrow")
            # narrow rows: coalesce before the partitioned write so the
            # spill is ~num_buckets² files, not (blocks × buckets) tiny
            # ones (the user_sessions / dup_loser_ids precedent)
            .repartition(num_buckets),
            None, f"{work}/pairs", num_buckets)
        nd_dir = bucket_path(pairs, nd_bucket)
        if not os.path.isdir(nd_dir):
            return empty_out
        n_total = int(pq.read_table(nd_dir, columns=["doc_id"],
                                    use_threads=False)["doc_id"]
                      .to_numpy().sum())
        if n_total == 0:
            return empty_out
        # the scored rows re-spill by doc: each doc's top-K is local
        out = bucket_exchange(
            [bucket_exchange([pairs], [None], num_buckets,
                             lambda b, t: score_bucket(b, t, n_total))],
            ["doc_id"], num_buckets, topk_bucket).to_pandas()
        if out.empty:
            return empty_out
    out = out.sort_values(["doc_id", "rank"], kind="mergesort")
    return pa.table({
        "doc_id": pa.array(out["doc_id"].tolist(), type=pa.int64()),
        "term": pa.array(out["term"].tolist(), type=pa.string()),
        "score": pa.array(out["score"].tolist(), type=pa.float64()),
        "rank": pa.array(out["rank"].tolist(), type=pa.int64()),
    })


def media_features_real(sf_dir: str) -> rd.Dataset:
    """media_features with the REAL decode backend end-to-end (rows-only
    check: DuckDB cannot decode PNG/WAV/AVI): synthesize VALID payloads
    inside the distributed read — PNGs cycling all five scanline
    filters, WAV-PCM16 waveforms, AVI videos alternating baseline-MJPG
    and raw-DIB frame codecs (round 4: all three modalities decode for
    REAL) — decode them with MediaDecoder(backend='real') in a
    small-batch actor pool, and extract feature vectors.  Every row
    must come back decode_ok."""
    from ..stages.multimodal import (
        DEFAULT_MEDIA_BATCH_SIZE,
        MediaDecoder,
        MediaFeatures,
        synth_real_media_table,
    )

    # 32-way synth: the real ENCODERS (PNG/WAV/AVI writers) are pure
    # python too — 8 synth tasks serialized the pipeline at sf0.1
    media = _docs(sf_dir).repartition(32).map_batches(
        synth_real_media_table, batch_format="pyarrow",
    )
    decoded = media.map_batches(
        MediaDecoder,
        fn_constructor_kwargs=dict(backend="real", image_hw=(16, 16),
                                   audio_samples=256),
        batch_format="pyarrow",
        batch_size=DEFAULT_MEDIA_BATCH_SIZE,
        # real codecs are pure-python CPU: autoscale the pool (2→8)
        # instead of pinning 2 actors (which serializes sf0.1's ~160
        # decode batches); the upstream synth stage stays a task pool
        concurrency=(2, 8),
    )
    feats = decoded.map_batches(
        lambda t: t.filter(pc.field("decode_ok")),
        batch_format="pyarrow",
    ).map_batches(MediaFeatures(), batch_format="pyarrow",
                  batch_size=DEFAULT_MEDIA_BATCH_SIZE)
    return feats.select_columns(["media_id", "doc_id", "kind", "features"])


FT_EN_QUERIES = ("data processing pipeline", "stream window merge",
                 "query performance", "information")
FT_EN_K = 10


def fulltext_topk(sf_dir: str) -> pa.Table:
    """The FULL ``en``-chain engine path (UAX#29-ish tokenize →
    possessive strip → lowercase → stopword removal → Porter) under the
    SQL value-hash gate — upgraded from rows-only in round 3.  Same
    contract as fulltext_topk_simple: real on-disk build (exact stats),
    standard TAAT search, 6-dp-rounded scores ranked (score desc,
    doc_id asc).  The DuckDB oracle (oracles.fulltext_en_sql) inlines
    the vocabulary→term mapping produced by this same analyzer and
    recomputes everything else — tokenization, dl/N/avgdl/df/idf,
    BM25 — from raw text, so the engine (build → shuffle → codec →
    decode → stats → scoring) is hash-checked end-to-end; Porter
    itself stays pinned by tests/test_analyzer.py goldens."""
    from .build import build_index
    from .query import BM25Index

    with spill_dir("ft_en_") as d:
        build_index(f"{sf_dir}/documents.parquet", d, analyzer="en",
                    lang_col="lang", num_buckets=16, sample_rate=1.0)
        idx = BM25Index(d)
        out_q, out_d, out_s = [], [], []
        for q in FT_EN_QUERIES:
            for m in _retrieve_tie_complete(idx, q, FT_EN_K):
                out_q.append(q)
                out_d.append(m.doc_id)
                out_s.append(round(m.score, 6))
    import pandas as pd

    df = pd.DataFrame({"query": out_q, "doc_id": out_d, "score": out_s})
    df = df.sort_values(["query", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
    df["rank"] = df.groupby("query", sort=True).cumcount() + 1
    df = df[df["rank"] <= FT_EN_K]
    return pa.table({
        "query": pa.array(df["query"].tolist(), type=pa.string()),
        "doc_id": pa.array(df["doc_id"].tolist(), type=pa.int64()),
        "score": pa.array(df["score"].tolist(), type=pa.float64()),
        "rank": pa.array(df["rank"].tolist(), type=pa.int64()),
    })


PROPS_KEY_RE = r'"k":\s*(?P<k>\d+)'


def event_props_stats(sf_dir: str) -> pa.Table:
    """Semi-structured column extraction (the log-pipeline staple): the
    events table's ``props`` column holds JSON; extract the integer
    ``k`` with ONE vectorized RE2 kernel per batch (pyarrow
    extract_regex — the same regex engine DuckDB's regexp_extract uses,
    so both sides parse identically), pre-aggregate per event_type
    inside the batch, and reduce the tiny per-type partials."""

    def partial(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t["props"], pattern=PROPS_KEY_RE)
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        et = t["event_type"]
        ok = pc.is_valid(k)
        et = et.filter(ok)
        kv = k.filter(ok).to_numpy(zero_copy_only=False)
        names = np.asarray(et.to_pylist(), dtype=object)
        uniq, inv = np.unique(names, return_inverse=True)
        n = uniq.size
        return pa.table({
            "event_type": pa.array(uniq.tolist(), type=pa.string()),
            "n_events": pa.array(np.bincount(inv, minlength=n)
                                 .astype(np.int64)),
            "sum_k": pa.array(_group_sum(inv, kv, n)),
            "max_k": pa.array(_group_max(inv, kv, n)),
        })

    from ray.data.aggregate import Max

    from ..functions.tables import read_parquet_nometa

    out = (
        read_parquet_nometa(f"{sf_dir}/events.parquet",
                            columns=["event_type", "props"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n_events", alias_name="n_events"),
                   Sum("sum_k", alias_name="sum_k"),
                   Max("max_k", alias_name="max_k"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    out = typed_pandas(out, {
        "event_type": "object", "n_events": "int64",
        "sum_k": "int64", "max_k": "int64"}).sort_values("event_type")
    return pa.table({
        "event_type": pa.array(out["event_type"].tolist(),
                               type=pa.string()),
        "n_events": pa.array(out["n_events"].astype("int64").tolist(),
                             type=pa.int64()),
        "sum_k": pa.array(out["sum_k"].astype("int64").tolist(),
                          type=pa.int64()),
        "max_k": pa.array(out["max_k"].astype("int64").tolist(),
                          type=pa.int64()),
    })


def _group_sum(inv: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, inv, v.astype(np.int64, copy=False))
    return out


def _group_max(inv: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    out = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(out, inv, v.astype(np.int64, copy=False))
    return out


KNN_N_CLUSTERS = 16
KNN_N_PROBE = 4


def knn_label_accuracy(sf_dir: str) -> pa.Table:
    """Leave-one-out 1-NN label accuracy over the labeled embeddings —
    the data-quality probe for a labeled corpus — via the PERSISTED IVF
    cluster-partitioned layout (pipelines/similarity.py), with no
    whole-corpus materialization anywhere and NO per-call shuffle:

    1. centroids + layout come from ``ivf_layout_cached`` — built AT
       MOST ONCE per input fingerprint (atomic tmp+rename, shared
       across calls AND processes; the ann_ivf precedent).  The layout
       already holds every vector partitioned by its assigned cluster
       (vec_id, embedding, label), so the one shuffle this operator
       ever needs happened at layout-build time;
    2. the score pass is a single Ray job over PARTITION IDS: each task
       reads one partition's members as its query set, recomputes probe
       rankings from the broadcast centroids (first probe == own
       partition by construction — np.argmax in the layout builder and
       the stable argsort here agree on first-max), reads the ≤
       n_clusters partitions its queries probe (cached per task,
       threaded opens), scores every query against the CONCATENATED
       probed members (block matmul, 9-dp-rounded sims, global
       lowest-vec_id tie-break, self excluded) and finishes the 1-NN
       argmax LOCALLY;
    3. tasks emit per-label (n, n_correct) partials; a label-count-
       sized groupby finishes.

    Driver + object store hold O(centroids) only; per-call data motion
    is partition reads, zero all-to-all.  Scale knob: n_clusters grows
    with N so per-task member reads (≈ n_probe/n_clusters of the
    corpus) stay bounded.  The oracle recomputes assignment, probing,
    candidate sims and the (sim desc, vec_id asc) argmax independently
    in DuckDB from the inlined centroid literals."""
    import os

    import pyarrow.parquet as pq

    from ..functions.spill import bucket_path
    from .similarity import _embed_matrix, ivf_layout_cached

    if pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows == 0:
        return pa.table({
            "label": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
            "n_correct": pa.array([], type=pa.int64()),
        })
    cents, parts_dir = ivf_layout_cached(
        sf_dir, n_clusters=KNN_N_CLUSTERS, exclude_below=0,
        extra_cols=("label",),
    )
    dim = cents.shape[1]
    cents_ref = ray.put(cents)
    have_parts = [p for p in range(KNN_N_CLUSTERS)
                  if os.path.isdir(bucket_path(parts_dir, p))]

    def score_parts(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "label": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
            "n_correct": pa.array([], type=pa.int64()),
        })
        cents_ = ray.get(cents_ref)
        part_cache: dict[int, tuple | None] = {}

        def load_part(p: int):
            got = part_cache.get(p, -1)
            if got != -1:
                return got
            pdir = bucket_path(parts_dir, p)
            if not os.path.isdir(pdir):
                part_cache[p] = None
                return None
            mt = pq.read_table(
                pdir, columns=["vec_id", "embedding", "label"],
                use_threads=False)
            if mt.num_rows == 0:
                part_cache[p] = None
                return None
            mids = mt["vec_id"].to_numpy().astype(np.int64)
            mlab = mt["label"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            mm = _embed_matrix(mt["embedding"], dim)
            part_cache[p] = (mids, mlab, mm)
            return part_cache[p]

        own_all = []
        pred_all = []
        for part in batch["part"].to_pylist():
            own = load_part(int(part))
            if own is None:
                continue
            qids, qlab, qm = own
            qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
            dots = qm @ cents_.T  # scaling-invariant probe ranking
            # stable argsort of -dots: ties break toward the lower
            # cluster id — ORDER BY dot DESC, c ASC (oracle-matched);
            # column 0 is the assignment (== this partition)
            probes = np.argsort(-dots, axis=1,
                                kind="stable")[:, :KNN_N_PROBE]
            # vectors sharing a probe SET score as one block matmul
            uniq_sets, inv_sets = np.unique(probes, axis=0,
                                            return_inverse=True)
            # pre-load every part this task probes, threaded (parquet
            # reads release the GIL; sequential opens dominate the task
            # wall at gate scale)
            need = sorted({int(p) for p in np.unique(uniq_sets)})
            if len(need) > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(min(8, len(need))) as pool:
                    list(pool.map(load_part, need))
            for si in range(uniq_sets.shape[0]):
                parts = [load_part(int(p)) for p in uniq_sets[si]]
                parts = [x for x in parts if x is not None]
                if not parts:
                    continue
                mids = np.concatenate([x[0] for x in parts])
                mlab = np.concatenate([x[1] for x in parts])
                mm = np.vstack([x[2] for x in parts])
                # global lowest-vec_id tie-break: sort candidates by id
                srt = np.argsort(mids, kind="stable")
                mids, mlab, mm = mids[srt], mlab[srt], mm[srt]
                mn = mm / np.linalg.norm(mm, axis=1, keepdims=True)
                sel = np.nonzero(inv_sets == si)[0]
                for s in range(0, sel.size, 2048):
                    rows = sel[s:s + 2048]
                    sims = np.round(qn[rows] @ mn.T, 9)
                    # leave-one-out: mask each query's own row
                    pos = np.searchsorted(mids, qids[rows])
                    ok = pos < len(mids)
                    hit = ok & (mids[np.minimum(pos, len(mids) - 1)]
                                == qids[rows])
                    sims[np.nonzero(hit)[0], pos[hit]] = -np.inf
                    best = sims.max(axis=1)
                    valid = best > -np.inf
                    if not valid.any():
                        continue
                    nn_pos = (sims >= best[:, None]).argmax(axis=1)
                    own_all.append(qlab[rows][valid])
                    pred_all.append(mlab[nn_pos[valid]])
        if not own_all:
            return empty
        own = np.concatenate(own_all)
        pred = np.concatenate(pred_all)
        uniq, inv = np.unique(own, return_inverse=True)
        n = uniq.size
        return pa.table({
            "label": pa.array(uniq.astype(np.int64)),
            "n": pa.array(np.bincount(inv, minlength=n)
                          .astype(np.int64)),
            "n_correct": pa.array(_group_sum(
                inv, (pred == own).astype(np.int64), n)),
        })

    out = (
        rd.from_items([{"part": p} for p in have_parts])
        .map_batches(score_parts, batch_format="pyarrow", batch_size=1)
        .groupby("label")
        .aggregate(Sum("n", alias_name="n"),
                   Sum("n_correct", alias_name="n_correct"))
        .to_pandas()
        .sort_values("label")
    )
    return pa.table({
        "label": pa.array(out["label"].astype("int64").tolist(),
                          type=pa.int64()),
        "n": pa.array(out["n"].astype("int64").tolist(), type=pa.int64()),
        "n_correct": pa.array(out["n_correct"].astype("int64").tolist(),
                              type=pa.int64()),
    })


def source_mix(sf_dir: str) -> pa.Table:
    """Training-mix composition report: per (source, lang) — docs, total
    chars, and corpus share in integer BASIS POINTS (floor(1e4·n/N):
    integer arithmetic on both sides, no float rounding to flake the
    hash).  Per-batch combiner → tiny (sources × langs) shuffle."""
    from ..functions.tables import read_parquet_nometa

    def partial(t: pa.Table) -> pa.Table:
        # arrow-native combiner: hash group_by on the batch, zero
        # Python-object materialization of the string columns
        g = (t.select(["source", "lang", "n_chars"])
             .group_by(["source", "lang"])
             .aggregate([("n_chars", "count"), ("n_chars", "sum")]))
        return pa.table({
            "source": g["source"],
            "lang": g["lang"],
            "n_docs": g["n_chars_count"].cast(pa.int64()),
            "total_chars": g["n_chars_sum"].cast(pa.int64()),
        })

    agg = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["source", "lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "lang"])
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("total_chars", alias_name="total_chars"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    agg = typed_pandas(agg, {
        "source": "object", "lang": "object",
        "n_docs": "int64", "total_chars": "int64"})
    total = int(agg["n_docs"].sum())
    agg["share_bp"] = (10_000 * agg["n_docs"].astype("int64")) // max(total, 1)
    agg = agg.sort_values(["source", "lang"])
    return pa.table({
        "source": pa.array(agg["source"].tolist(), type=pa.string()),
        "lang": pa.array(agg["lang"].tolist(), type=pa.string()),
        "n_docs": pa.array(agg["n_docs"].astype("int64").tolist(),
                           type=pa.int64()),
        "total_chars": pa.array(agg["total_chars"].astype("int64").tolist(),
                                type=pa.int64()),
        "share_bp": pa.array(agg["share_bp"].astype("int64").tolist(),
                             type=pa.int64()),
    })


TEMP_MIX_DENOM = 2   # sampling budget = total_docs // TEMP_MIX_DENOM


def temperature_mix(sf_dir: str) -> rd.Dataset:
    """Temperature-based source mixing — the multilingual/multi-source
    rebalancing sampler of mT5/ROOTS-style corpora: small sources are
    UP-weighted relative to their raw share by sampling each source s
    proportionally to ``size_s ** alpha`` (alpha = 0.5 here), so no
    single giant crawl dominates the training mix.  All math is
    INTEGER-EXACT so the value hash cannot flake on float rounding:

    * weight  ``w_s   = isqrt(total_chars_s)``  (alpha = 0.5, exact —
      DuckDB's floor(sqrt(x)) on a < 2^50 radicand equals isqrt because
      IEEE sqrt is correctly rounded and cannot cross an integer),
    * target  ``t_s   = min(n_docs_s, (w_s * budget) // sum_w)`` with
      ``budget = total_docs // TEMP_MIX_DENOM``,
    * keep rule: ``mix64(doc_id) < (t_s << 64) // n_docs_s`` — the
      corpus_sample splitmix64 convention, per-source rate t_s/n_s in
      pure 128-bit integer arithmetic (2^64 == keep-all when t_s==n_s).

    Scale shape: pass 1 is a per-batch arrow combiner into a
    sources-sized groupby (O(sources) driver state); pass 2 is a pure
    per-batch filter against the broadcast O(sources) threshold table —
    membership is a function of (doc_id, source) only, so every
    retry/cluster-size reproduces the identical sample."""
    import math

    from ..functions.hashing import mix64
    from ..functions.tables import read_parquet_nometa

    def partial(t: pa.Table) -> pa.Table:
        g = (t.select(["source", "n_chars"]).group_by(["source"])
             .aggregate([("n_chars", "count"), ("n_chars", "sum")]))
        return pa.table({
            "source": g["source"],
            "n_docs": g["n_chars_count"].cast(pa.int64()),
            "total_chars": g["n_chars_sum"].cast(pa.int64()),
        })

    agg = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["source", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("total_chars", alias_name="total_chars"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    agg = typed_pandas(agg, {
        "source": "object", "n_docs": "int64", "total_chars": "int64"})
    srcs = agg["source"].tolist()
    nd = agg["n_docs"].astype("int64").tolist()
    w = [math.isqrt(int(tc)) for tc in agg["total_chars"].tolist()]
    sum_w = sum(w)
    budget = sum(nd) // TEMP_MIX_DENOM
    thresh = {
        s: (min(int(n), (wi * budget) // sum_w) << 64) // int(n)
        for s, n, wi in zip(srcs, nd, w)
    }
    ref = ray.put(thresh)

    def keep(t: pa.Table) -> pa.Table:
        th = ray.get(ref)
        order = sorted(th)
        lim = np.array([min(th[s], (1 << 64) - 1) for s in order],
                       dtype=np.uint64)
        allmask = np.array([th[s] >= (1 << 64) for s in order],
                           dtype=bool)
        codes = pc.index_in(
            t["source"], value_set=pa.array(order, type=pa.string())
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = mix64(ids)
        mask = allmask[codes] | (h < lim[codes])
        return t.filter(pa.array(mask))

    return (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "source"])
        .map_batches(keep, batch_format="pyarrow")
    )


SEQ_PACK_LEN = 512          # tokens per packed training sequence
SEQ_PACK_BUCKET_DOCS = 4096  # doc_id-range bucket width for the scan


def sequence_pack(sf_dir: str) -> pa.Table:
    """Concat-and-chunk sequence packing report — the GPT-style
    pretraining layout: documents are concatenated in doc_id order
    into one token stream, cut into fixed SEQ_PACK_LEN-token training
    sequences; per document emit (doc_id, n_tokens, first_seq,
    last_seq, offset_in_seq, crosses) so a loader can pack shards and
    measure boundary-crossing mass without ever materializing the
    stream.

    The core primitive is a DISTRIBUTED ORDERED PREFIX SCAN (the
    classic two-phase scan): docs bucket by doc_id range (bucket k's
    ids all precede bucket k+1's, so bucket order IS stream order);
    phase 1 spills narrow (doc_id, n_tokens) rows partitioned by
    bucket (text is read once and never moves); phase 2 reduces each
    bucket to its token sum (driver holds O(buckets) ints and
    prefix-sums them); phase 3 finalizes each bucket locally —
    in-bucket cumsum + the bucket's global offset.  No all-to-all:
    every exchange is O(docs) ints through the spill dir and the
    driver never sees text.  The oracle reproduces the whole layout
    with one SQL window cumsum."""
    from ..functions.spill import BUCKET_COL, bucket_exchange, spill_bucketed

    from ..functions.tables import read_parquet_nometa

    L = SEQ_PACK_LEN
    R = SEQ_PACK_BUCKET_DOCS

    def counts(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t["text"]), pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        parent = toks.value_parent_indices().to_numpy().astype(np.int64)
        nonempty = pc.not_equal(toks.flatten(), "") \
            .to_numpy(zero_copy_only=False)
        nt = np.zeros(t.num_rows, dtype=np.int64)
        np.add.at(nt, parent[nonempty], 1)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_tokens": pa.array(nt, type=pa.int64()),
            BUCKET_COL: pa.array(ids // R, type=pa.int64()),
        })

    def bucket_sum(b: int, t: pa.Table) -> pa.Table:
        return pa.table({"part": pa.array([b], type=pa.int64()),
                         "total": pa.array([int(np.sum(
                             t["n_tokens"].to_numpy()))], type=pa.int64())})

    def finalize(b: int, t: pa.Table, offs: dict) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        nt = t["n_tokens"].to_numpy().astype(np.int64)
        o = np.argsort(ids, kind="stable")
        ids, nt = ids[o], nt[o]
        start = offs[b] + np.concatenate(
            ([0], np.cumsum(nt[:-1], dtype=np.int64)))
        first = start // L
        last = np.where(nt > 0, (start + nt - 1) // L, first)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_tokens": pa.array(nt, type=pa.int64()),
            "first_seq": pa.array(first, type=pa.int64()),
            "last_seq": pa.array(last, type=pa.int64()),
            "offset_in_seq": pa.array(start % L, type=pa.int64()),
            "crosses": pa.array(last > first, type=pa.bool_()),
        })

    with spill_dir("seqpack_") as work:
        layout = spill_bucketed(
            read_parquet_nometa(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text"])
            .map_batches(counts, batch_format="pyarrow"),
            None, f"{work}/counts")
        sums = bucket_exchange([layout], [None], 1, bucket_sum).to_pandas()
        if sums.empty:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "n_tokens": pa.array([], type=pa.int64()),
                "first_seq": pa.array([], type=pa.int64()),
                "last_seq": pa.array([], type=pa.int64()),
                "offset_in_seq": pa.array([], type=pa.int64()),
                "crosses": pa.array([], type=pa.bool_()),
            })
        # bucket order IS stream order: an exclusive prefix sum over the
        # bucket totals gives each bucket's global token offset
        sums = sums.sort_values("part")
        offs = dict(zip(sums["part"].tolist(),
                        (sums["total"].cumsum() - sums["total"]).tolist()))
        out = bucket_exchange(
            [layout], [None], 1,
            lambda b, t: finalize(b, t, offs)).to_pandas().sort_values("doc_id")
    return pa.table({
        "doc_id": pa.array(out["doc_id"].tolist(), type=pa.int64()),
        "n_tokens": pa.array(out["n_tokens"].tolist(), type=pa.int64()),
        "first_seq": pa.array(out["first_seq"].tolist(), type=pa.int64()),
        "last_seq": pa.array(out["last_seq"].tolist(), type=pa.int64()),
        "offset_in_seq": pa.array(out["offset_in_seq"].tolist(),
                                  type=pa.int64()),
        "crosses": pa.array(out["crosses"].tolist(), type=pa.bool_()),
    })


def sequence_pack_sql() -> str:
    """Oracle: one window cumsum over per-doc token counts reproduces
    the entire packed layout."""
    L = SEQ_PACK_LEN
    return f"""
        WITH nt AS (
            SELECT doc_id,
                   len(list_filter(regexp_split_to_array(lower(text),
                                                         '[^a-z0-9]+'),
                                   x -> x <> '')) AS n_tokens
            FROM documents
        ),
        c AS (
            SELECT doc_id, n_tokens,
                   coalesce(sum(n_tokens) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING), 0) AS start_tok
            FROM nt
        )
        SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
               CAST(start_tok // {L} AS BIGINT) AS first_seq,
               CAST(CASE WHEN n_tokens > 0
                    THEN (start_tok + n_tokens - 1) // {L}
                    ELSE start_tok // {L} END AS BIGINT) AS last_seq,
               CAST(start_tok % {L} AS BIGINT) AS offset_in_seq,
               (CASE WHEN n_tokens > 0
                    THEN (start_tok + n_tokens - 1) // {L}
                    ELSE start_tok // {L} END)
                   > start_tok // {L} AS crosses
        FROM c ORDER BY doc_id
    """


def source_overlap_report(sf_dir: str) -> pa.Table:
    """Cross-source duplicate provenance (dedup.py:source_overlap):
    per source pair, distinct shared full-length 8-word segments and
    integer-bp Jaccard — "how much content do sources share"."""
    from ..functions.tables import read_parquet_nometa
    from .dedup import source_overlap

    docs = read_parquet_nometa(
        f"{sf_dir}/documents.parquet", columns=["source", "text"])
    return source_overlap(docs)


def decontaminate_report(sf_dir: str) -> rd.Dataset:
    """GPT-3-style eval decontamination (dedup.py:decontaminate): docs
    sharing ≥1 distinct 13-word span with the held-out benchmark split,
    with the distinct-gram hit count."""
    from .dedup import decontaminate

    out = decontaminate(_docs(sf_dir)).to_pandas()
    # pin the schema: an all-empty Dataset loses its column names in
    # to_pandas, which would flake the driver's schema compare
    return pa.table({
        "doc_id": pa.array(
            out["doc_id"].tolist() if len(out.columns) else [],
            type=pa.int64()),
        "n_hit_grams": pa.array(
            out["n_hit_grams"].tolist() if len(out.columns) else [],
            type=pa.int64()),
    })


def dedup_keep_best(sf_dir: str) -> pa.Table:
    """Quality-aware near-dup representative per MinHash cluster
    (dedup.py:keep_best_dedup): keep the fullest member, not min-id."""
    from .dedup import keep_best_dedup

    return keep_best_dedup(_docs(sf_dir), threshold=JACCARD_THRESHOLD)


UNIMAX_NUM, UNIMAX_DEN = 4, 5   # char budget = total_chars * 4 // 5
UNIMAX_EPOCHS = 1               # per-source cap = EPOCHS x source size


def unimax_mix(sf_dir: str) -> rd.Dataset:
    """UniMax source mixing (Chung et al. 2023) — the successor to
    temperature sampling: instead of a power-law reweight, allocate a
    TOTAL char budget across sources (languages here) by waterfilling —
    visit sources smallest-first; each receives
    ``min(EPOCHS * size_s, remaining_budget / remaining_sources)`` —
    so no source exceeds its epoch cap and the leftover from capped
    small sources flows to the large ones.  All arithmetic is
    INTEGER-EXACT (floor divisions; keep thresholds in 128-bit), and
    the keep rule is the corpus_sample splitmix64 convention
    ``mix64(doc_id) < (alloc_s << 64) // size_s`` — membership is a
    pure function of (doc_id, lang), parallelism-independent.

    With UNIMAX_NUM/DEN = 4/5 over the sf lang skew the cap BINDS: the
    small languages are kept whole (threshold == 2^64, the keep-all
    branch) and the big one is rationed — both branches of the
    waterfall are under the value hash.  Scale shape: pass 1 is a
    per-batch combiner into an O(langs) groupby; the waterfall is
    O(langs) driver ints; pass 2 is a pure per-batch broadcast-
    threshold filter.  The oracle replays the waterfall as a recursive
    CTE and the splitmix64 limbs in HUGEINT."""
    from ..functions.hashing import mix64
    from ..functions.tables import read_parquet_nometa

    def partial(t: pa.Table) -> pa.Table:
        g = (t.select(["lang", "n_chars"]).group_by(["lang"])
             .aggregate([("n_chars", "sum")]))
        return pa.table({
            "lang": g["lang"],
            "size": g["n_chars_sum"].cast(pa.int64()),
        })

    agg = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("size", alias_name="size"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    agg = typed_pandas(agg, {"lang": "object", "size": "int64"})
    sizes = {l: int(s) for l, s in zip(agg["lang"], agg["size"])}
    rem = sum(sizes.values()) * UNIMAX_NUM // UNIMAX_DEN
    k = len(sizes)
    thresh: dict[str, int] = {}
    for lang in sorted(sizes, key=lambda l: (sizes[l], l)):
        quota = min(UNIMAX_EPOCHS * sizes[lang], rem // k)
        rem -= quota
        k -= 1
        thresh[lang] = (1 << 64) if quota >= sizes[lang] \
            else (quota << 64) // sizes[lang]
    ref = ray.put(thresh)

    def keep(t: pa.Table) -> pa.Table:
        th = ray.get(ref)
        order = sorted(th)
        lim = np.array([min(th[l], (1 << 64) - 1) for l in order],
                       dtype=np.uint64)
        allmask = np.array([th[l] >= (1 << 64) for l in order], dtype=bool)
        codes = pc.index_in(
            t["lang"], value_set=pa.array(order, type=pa.string())
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = mix64(ids)
        mask = allmask[codes] | (h < lim[codes])
        return t.filter(pa.array(mask))

    return (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "lang"])
        .map_batches(keep, batch_format="pyarrow")
    )


SHARD_COUNT = 8              # target output shards
SHARD_BUCKET_DOCS = 4096     # doc_id-range bucket width for the scan


def shard_layout(sf_dir: str) -> pa.Table:
    """Balanced contiguous shard layout — the resumable-output primitive
    at 100 TB: cut the doc_id-ordered corpus into SHARD_COUNT contiguous
    ranges of ~equal CHAR MASS (not doc count), so every output shard
    costs the same to write/re-process and a failed run resumes by
    skipping finished shards.  ``shard = cum_chars_before * K // total``
    — a pure function of the ordered prefix sum, so the cut points are
    deterministic and parallelism-independent.

    Same distributed ordered prefix scan as sequence_pack: docs bucket
    by doc_id range (bucket order IS corpus order), phase 1 spills
    narrow (doc_id, n_chars) rows per bucket, phase 2 reduces buckets to
    char sums (O(buckets) driver ints), phase 3 finalizes each bucket
    locally and emits per-bucket PARTIAL shard rollups — the driver sees
    O(buckets × shards) partials, never per-doc rows.  Output: per shard
    (n_docs, n_chars, min_doc, max_doc); contiguity is checkable from
    the min/max ranges.  Oracle: one window cumsum."""
    from ..functions.spill import (BUCKET_COL, bucket_exchange,
                                   spill_bucketed, spill_dir)
    from ..functions.tables import read_parquet_nometa

    K = SHARD_COUNT
    R = SHARD_BUCKET_DOCS

    def narrow(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_chars": t["n_chars"].cast(pa.int64()),
            BUCKET_COL: pa.array(ids // R, type=pa.int64()),
        })

    def bucket_sum(b: int, t: pa.Table) -> pa.Table:
        return pa.table({"part": pa.array([b], type=pa.int64()),
                         "total": pa.array([int(np.sum(
                             t["n_chars"].to_numpy()))], type=pa.int64())})

    def finalize(b: int, t: pa.Table, offs: dict, total: int) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        nc = t["n_chars"].to_numpy().astype(np.int64)
        o = np.argsort(ids, kind="stable")
        ids, nc = ids[o], nc[o]
        cum = offs[b] + np.concatenate(
            ([0], np.cumsum(nc[:-1], dtype=np.int64)))
        # int64 cum*K is exact to ~10^18/K chars — far past any single
        # corpus; the SQL oracle mirrors it in HUGEINT
        shard = np.minimum(cum * K // max(total, 1), K - 1)
        cols = {k: [] for k in ("shard", "n_docs", "n_chars",
                                "min_doc", "max_doc")}
        for s_ in np.unique(shard):
            m = shard == s_
            cols["shard"].append(int(s_))
            cols["n_docs"].append(int(m.sum()))
            cols["n_chars"].append(int(nc[m].sum()))
            cols["min_doc"].append(int(ids[m].min()))
            cols["max_doc"].append(int(ids[m].max()))
        return pa.table({k: pa.array(v, type=pa.int64())
                         for k, v in cols.items()})

    from ray.data.aggregate import Max, Min, Sum

    with spill_dir("shardlay_") as work:
        layout = spill_bucketed(
            read_parquet_nometa(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "n_chars"])
            .map_batches(narrow, batch_format="pyarrow"),
            None, f"{work}/chars")
        sums = bucket_exchange([layout], [None], 1, bucket_sum).to_pandas()
        if sums.empty:
            return pa.table({c: pa.array([], type=pa.int64())
                             for c in ("shard", "n_docs", "n_chars",
                                       "min_doc", "max_doc")})
        # bucket order IS corpus order: exclusive prefix sums of the
        # bucket totals are the global char offsets
        sums = sums.sort_values("part")
        offs = dict(zip(sums["part"].tolist(),
                        (sums["total"].cumsum() - sums["total"]).tolist()))
        total = int(sums["total"].sum())
        out = (bucket_exchange([layout], [None], 1,
                               lambda b, t: finalize(b, t, offs, total))
               .groupby("shard")
               .aggregate(Sum("n_docs", alias_name="n_docs"),
                          Sum("n_chars", alias_name="n_chars"),
                          Min("min_doc", alias_name="min_doc"),
                          Max("max_doc", alias_name="max_doc"))
               .to_pandas().sort_values("shard"))
    return pa.table({c: pa.array(out[c].astype("int64").tolist(),
                                 type=pa.int64())
                     for c in ("shard", "n_docs", "n_chars",
                               "min_doc", "max_doc")})


def shard_layout_sql(*, k: int = SHARD_COUNT) -> str:
    """Oracle: one window cumsum + the floor-division cut rule."""
    return f"""
        WITH c AS (
            SELECT doc_id, n_chars,
                   CAST(coalesce(sum(n_chars) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                   ), 0) AS HUGEINT) AS cum
            FROM documents
        ),
        tot AS (SELECT CAST(sum(n_chars) AS HUGEINT) AS t FROM documents),
        a AS (
            SELECT doc_id, n_chars,
                   CAST(least(cum * {k} // (SELECT t FROM tot), {k - 1})
                        AS BIGINT) AS shard
            FROM c
        )
        SELECT shard, count(*) AS n_docs,
               CAST(sum(n_chars) AS BIGINT) AS n_chars,
               min(doc_id) AS min_doc, max(doc_id) AS max_doc
        FROM a GROUP BY shard ORDER BY shard
    """


WSAMPLE_K = 50


def weighted_sample(sf_dir: str, *, k: int = WSAMPLE_K) -> pa.Table:
    """Deterministic weighted sampling without replacement (Efraimidis
    & Spirakis 2006, A-ES): each doc draws u = mix64(doc_id)/2^64 and
    keeps key = ln(u)/w with weight w = n_chars; the k LARGEST keys win
    — longer docs are proportionally likelier, yet the sample is a pure
    function of doc_id (re-runs and the SQL oracle reproduce it
    bit-for-bit).

    Scale shape: key computation and top-k are per-batch (narrow rows:
    doc_id, lang, n_chars); the driver merge sees O(k · blocks).  No
    shuffle, no RNG state — the splitmix64 finalizer is the corpus_
    sample convention, so the oracle replays it in HUGEINT limbs.
    Zero-length docs are excluded (w = 0 has no valid E-S key)."""
    from ..functions.hashing import mix64
    from ..functions.tables import read_parquet_nometa

    def local_topk(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        w = t["n_chars"].to_numpy().astype(np.float64)
        keep = w > 0
        ids, w = ids[keep], w[keep]
        langs = t["lang"].to_numpy(zero_copy_only=False)[keep]
        nch = t["n_chars"].to_numpy()[keep]
        # +0.5 keeps u in (0,1): mix64(0) = 0 and ln(0) is a pole (the
        # oracle replays the identical half-up offset)
        u = (mix64(ids.astype(np.uint64)).astype(np.float64)
             + 0.5) / 2.0 ** 64
        key = np.log(u) / w
        top = np.lexsort((ids, -key))[:k]
        return pa.table({
            "doc_id": pa.array(ids[top], type=pa.int64()),
            "lang": pa.array(langs[top].tolist(), type=pa.string()),
            "n_chars": pa.array(nch[top], type=pa.int64()),
            "key": pa.array(key[top], type=pa.float64()),
        })

    cand = read_parquet_nometa(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    ).map_batches(local_topk, batch_format="pyarrow").to_pandas()
    if cand.empty or "key" not in cand.columns:     # empty corpus
        cand = cand.reindex(columns=["doc_id", "lang", "n_chars",
                                     "key"])
    cand = cand.sort_values(["key", "doc_id"], ascending=[False, True],
                            kind="mergesort").head(k)
    return pa.table({
        "doc_id": pa.array(cand["doc_id"].tolist(), type=pa.int64()),
        "lang": pa.array(cand["lang"].tolist(), type=pa.string()),
        "n_chars": pa.array(cand["n_chars"].tolist(), type=pa.int64()),
    })


def weighted_sample_sql(*, k: int = WSAMPLE_K) -> str:
    """Oracle: splitmix64 in HUGEINT limbs (sample_sql convention),
    the same ln(u)/w key and top-k."""
    U32, U64 = 1 << 32, 1 << 64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(x: str, c: int) -> str:
        ch, cl = c >> 32, c % U32
        return (f"((({x} % {U32}) * {cl} + "
                f"((({x} % {U32}) * {ch} + ({x} >> 32) * {cl}) % {U32})"
                f" * {U32}) % {U64})")

    return f"""
        WITH m0 AS (SELECT doc_id, lang, n_chars,
                           CAST(doc_id AS HUGEINT) AS x
                    FROM documents WHERE n_chars > 0),
        m1 AS (SELECT doc_id, lang, n_chars,
                      {mulmod('xor(x, x >> 30)', C1)} AS x FROM m0),
        m2 AS (SELECT doc_id, lang, n_chars,
                      {mulmod('xor(x, x >> 27)', C2)} AS x FROM m1),
        m3 AS (SELECT doc_id, lang, n_chars,
                      xor(x, x >> 31) AS x FROM m2)
        SELECT doc_id, lang, n_chars FROM m3
        ORDER BY ln((CAST(x AS DOUBLE) + 0.5) / {float(U64)!r})
                     / CAST(n_chars AS DOUBLE) DESC,
                 doc_id ASC
        LIMIT {k}
    """


PMI_MIN_COUNT = 5
PMI_TOPK = 100


def pmi_collocations(sf_dir: str, *, min_count: int = PMI_MIN_COUNT,
                     k: int = PMI_TOPK) -> pa.Table:
    """PMI-ranked collocations (Church & Hanks 1990): top-k adjacent
    word pairs by pointwise mutual information among pairs with
    n >= min_count.

    pmi(x,y) = ln( (c_xy / T) / ((c_x / U) * (c_y / U)) ) with T total
    bigrams, U total unigrams.

    Scale shape — ONE fused tokenize pass, ONE shuffle (session-13
    fusion; the first version ran separate unigram and bigram passes
    and paid the corpus read + tokenize twice — measured 2.05 s vs
    1.3 s fused at sf0.1/32cpu): the per-batch combiner emits BOTH
    gram kinds into one column (a bigram contains a space, a unigram
    cannot — the separator is the kind tag), a single groupby
    aggregates them together, and T/U are O(blocks) distributed
    partial sums over the aggregate.  The >= min filter runs
    distributed BEFORE anything is collected; the unigram table the
    PMI pass consults is broadcast once, bounded by the filtered
    vocabulary (every unigram inside a surviving pair has count >=
    min; the term_df trade documented there)."""
    import ray

    def fused_partial(t: pa.Table) -> pa.Table:
        # identical pairing rule to bigram_counts (packed vocab codes),
        # plus unigram counts from the SAME dictionary-encoded pass
        empty = pa.table({"gram": pa.array([], type=pa.string()),
                          "n": pa.array([], type=pa.int64())})
        if t.num_rows == 0:
            return empty
        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(t["text"], "")),
            pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        n = len(flat)
        if n == 0:
            return empty
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        de = flat.dictionary_encode()
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = de.dictionary
        V = len(vocab)
        try:
            empty_code = vocab.index("").as_py()
        except Exception:
            empty_code = -1
        # unigrams
        cnt = np.bincount(codes, minlength=V)
        if 0 <= empty_code:
            cnt[empty_code] = 0
        nz = np.flatnonzero(cnt)
        uni_gram = vocab.take(pa.array(nz, type=pa.int64()))
        uni_n = cnt[nz].astype(np.int64)
        # bigrams
        big_gram = pa.array([], type=pa.string())
        big_n = np.empty(0, dtype=np.int64)
        if n >= 2:
            bounds = np.cumsum(lens[:-1], dtype=np.int64)
            ok = (codes[:-1] != empty_code) & (codes[1:] != empty_code)
            bounds = bounds[(bounds > 0) & (bounds <= n - 1)]
            ok[bounds - 1] = False
            key = codes[:-1][ok] * V + codes[1:][ok]
            if key.size:
                uniq, counts = np.unique(key, return_counts=True)
                a = pa.array(uniq // V, type=pa.int64())
                b = pa.array(uniq % V, type=pa.int64())
                big_gram = pc.binary_join_element_wise(
                    vocab.take(a), vocab.take(b), " ")
                big_n = counts.astype(np.int64)
        return pa.table({
            "gram": pa.concat_arrays([
                uni_gram.combine_chunks()
                if isinstance(uni_gram, pa.ChunkedArray) else uni_gram,
                big_gram.combine_chunks()
                if isinstance(big_gram, pa.ChunkedArray) else big_gram,
            ]),
            "n": pa.array(np.r_[uni_n, big_n], type=pa.int64()),
        })

    grams = (
        _docs(sf_dir)
        .map_batches(fused_partial, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def totals_partial(t: pa.Table) -> pa.Table:
        is_big = pc.match_substring(t["gram"], pattern=" ")
        tn = int(pc.sum(pc.if_else(is_big, t["n"], 0)).as_py() or 0)
        un = int(pc.sum(pc.if_else(is_big, 0, t["n"])).as_py() or 0)
        return pa.table({"t": pa.array([tn], type=pa.int64()),
                         "u": pa.array([un], type=pa.int64())})

    tot = grams.map_batches(
        totals_partial, batch_format="pyarrow").to_pandas()
    t_total = int(tot["t"].sum()) if "t" in tot.columns else 0
    u_total = int(tot["u"].sum()) if "u" in tot.columns else 0
    empty = pa.table({
        "bigram": pa.array([], type=pa.string()),
        "n": pa.array([], type=pa.int64()),
        "pmi": pa.array([], type=pa.float64()),
    })
    if t_total == 0 or u_total == 0:
        return empty

    def term_keep(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.invert(pc.match_substring(t["gram"], " ")),
                       pc.greater_equal(t["n"], min_count))
        return t.filter(keep)

    uni_keep = grams.map_batches(
        term_keep, batch_format="pyarrow").to_pandas()
    cmap_ref = ray.put(dict(zip(uni_keep["gram"], uni_keep["n"])))

    def score_local(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.match_substring(t["gram"], " "),
                             pc.greater_equal(t["n"], min_count)))
        if t.num_rows == 0:
            return empty
        cmap = ray.get(cmap_ref)
        bigs = t["gram"].to_pylist()
        ns = t["n"].to_numpy().astype(np.float64)
        cx = np.fromiter(
            (cmap.get(bg.split(" ", 1)[0], 0) for bg in bigs),
            dtype=np.float64, count=len(bigs))
        cy = np.fromiter(
            (cmap.get(bg.split(" ", 1)[1], 0) for bg in bigs),
            dtype=np.float64, count=len(bigs))
        pmi = np.round(np.log(
            (ns / float(t_total))
            / ((cx / float(u_total)) * (cy / float(u_total)))), 6)
        import pandas as pd

        # local cut in the SAME (pmi desc, bigram asc) order as the
        # driver merge, so a boundary tie can never drop the winner
        df = pd.DataFrame({
            "bigram": bigs,
            "n": t["n"].to_numpy(),
            "pmi": pmi,
        }).sort_values(["pmi", "bigram"], ascending=[False, True],
                       kind="mergesort").head(k)
        return pa.table({
            "bigram": pa.array(df["bigram"].tolist(), type=pa.string()),
            "n": pa.array(df["n"].astype("int64").tolist(),
                          type=pa.int64()),
            "pmi": pa.array(df["pmi"].tolist(), type=pa.float64()),
        })

    cand = grams.map_batches(
        score_local, batch_format="pyarrow").to_pandas()
    if cand.empty:
        return empty
    cand = cand.sort_values(["pmi", "bigram"], ascending=[False, True],
                            kind="mergesort").head(k)
    return pa.table({
        "bigram": pa.array(cand["bigram"].tolist(), type=pa.string()),
        "n": pa.array(cand["n"].astype("int64").tolist(),
                      type=pa.int64()),
        "pmi": pa.array(cand["pmi"].tolist(), type=pa.float64()),
    })


def pmi_sql(*, min_count: int = PMI_MIN_COUNT, k: int = PMI_TOPK) -> str:
    """Oracle: the bigram_counts pairing CTE + unigram counts + the PMI
    algebra, same float expression shape."""
    return f"""
        WITH tl AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(lower(text),
                                                   '[^a-z0-9]+'),
                             x -> x <> '') AS toklist
          FROM documents
        ), t AS (
          SELECT doc_id, unnest(list_zip(
                     list_slice(toklist, 1, len(toklist) - 1),
                     list_slice(toklist, 2, len(toklist)))) AS pr
          FROM tl WHERE len(toklist) >= 2
        ), pairs AS (
          SELECT pr[1] AS w1, pr[2] AS w2, count(*) AS n
          FROM t GROUP BY 1, 2
        ), tot AS (SELECT sum(n) AS t FROM pairs),
        uni AS (
          SELECT unnest(toklist) AS term FROM tl
        ), ucnt AS (SELECT term, count(*) AS c FROM uni GROUP BY term),
        utot AS (SELECT count(*) AS u FROM uni)
        SELECT w1 || ' ' || w2 AS bigram, n,
               round(ln((CAST(n AS DOUBLE) / CAST(tot.t AS DOUBLE))
                        / ((CAST(ux.c AS DOUBLE) / CAST(utot.u AS DOUBLE))
                           * (CAST(uy.c AS DOUBLE)
                              / CAST(utot.u AS DOUBLE)))), 6) AS pmi
        FROM pairs
        CROSS JOIN tot CROSS JOIN utot
        JOIN ucnt ux ON pairs.w1 = ux.term
        JOIN ucnt uy ON pairs.w2 = uy.term
        WHERE n >= {min_count}
        ORDER BY pmi DESC, bigram ASC
        LIMIT {k}
    """


def ann_filtered(sf_dir: str, *, k: int = ANN_K,
                 num_queries: int = ANN_NUM_QUERIES) -> pa.Table:
    """FILTERED vector search — brute cosine top-k restricted to
    candidates sharing the query's label (the metadata-filtered kNN
    every vector store ships: pre-filter semantics, so the k results
    all satisfy the predicate, never post-filter truncation).

    Same scale shape as ann_cosine_topk (queries broadcast once, one
    matmul per batch, k+buffer local cut); the filter is one vectorized
    mask per (batch, query) — at 100 TB the mask is where a real
    deployment pushes its partition predicate."""
    import pyarrow.parquet as pq

    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", num_queries)],
    )
    empty_out = pa.table({
        "query_id": pa.array([], type=pa.int64()),
        "vec_id": pa.array([], type=pa.int64()),
        "sim": pa.array([], type=pa.float64()),
        "rank": pa.array([], type=pa.int64()),
    })
    if qt.num_rows == 0:                  # empty embeddings table
        return empty_out
    q_ids = qt["vec_id"].to_numpy()
    q_labels = qt["label"].to_numpy()
    qm = np.stack([np.asarray(v, dtype=np.float64)
                   for v in qt["embedding"].to_pylist()])
    qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    ref = ray.put((q_ids, q_labels, qn))

    empty = pa.table({
        "query_id": pa.array([], type=pa.int64()),
        "vec_id": pa.array([], type=pa.int64()),
        "sim": pa.array([], type=pa.float64()),
    })

    def sims(batch: pa.Table) -> pa.Table:
        q_ids_, q_labels_, qn_ = ray.get(ref)
        ids = batch["vec_id"].to_numpy()
        labels = batch["label"].to_numpy()
        mask = ids >= num_queries
        if not mask.any():
            return empty
        emb = batch["embedding"].combine_chunks()
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.chunk(0)
        flat = emb.flatten().to_numpy(
            zero_copy_only=False).astype(np.float64)
        dim = qn_.shape[1]
        m = flat.reshape(-1, dim)[mask]
        ids, labels = ids[mask], labels[mask]
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        s = mn @ qn_.T
        kk = k + 32
        out_q, out_v, out_s = [], [], []
        for j, qid in enumerate(q_ids_):
            ok = labels == q_labels_[j]          # the metadata filter
            if not ok.any():
                continue
            col, cid = s[ok, j], ids[ok]
            top = (np.lexsort((cid, -col))[:kk]
                   if len(cid) > kk else np.arange(len(cid)))
            out_q += [int(qid)] * len(top)
            out_v += [int(x) for x in cid[top]]
            out_s += [float(x) for x in col[top]]
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    from ..functions.tables import read_parquet_nometa

    pdf = read_parquet_nometa(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"]) \
        .map_batches(sims, batch_format="pyarrow",
                     batch_size=4096).to_pandas()
    if pdf.empty or "sim" not in pdf.columns:
        return empty_out
    pdf["sim_r"] = pdf["sim"].round(6)
    pdf = pdf.sort_values(["query_id", "sim_r", "vec_id"],
                          ascending=[True, False, True],
                          kind="mergesort")
    pdf = pdf.groupby("query_id", sort=True).head(k)
    pdf["rank"] = pdf.groupby("query_id", sort=True).cumcount() + 1
    return pa.table({
        "query_id": pa.array(pdf["query_id"].tolist(), type=pa.int64()),
        "vec_id": pa.array(pdf["vec_id"].tolist(), type=pa.int64()),
        "sim": pa.array(pdf["sim_r"].tolist(), type=pa.float64()),
        "rank": pa.array(pdf["rank"].tolist(), type=pa.int64()),
    })


def ann_filtered_sql(*, k: int = ANN_K,
                     num_queries: int = ANN_NUM_QUERIES) -> str:
    """Oracle: the ann_cosine chain + the same-label pre-filter."""
    return f"""
        WITH qe AS (
            SELECT vec_id AS query_id, label,
                   generate_subscripts(embedding, 1) AS i,
                   CAST(unnest(embedding) AS DOUBLE) AS v
            FROM embeddings WHERE vec_id < {num_queries}
        ),
        be AS (
            SELECT vec_id, label,
                   generate_subscripts(embedding, 1) AS i,
                   CAST(unnest(embedding) AS DOUBLE) AS v
            FROM embeddings WHERE vec_id >= {num_queries}
        ),
        qn AS (SELECT query_id, any_value(label) AS label,
                      sqrt(sum(v * v)) AS nrm
               FROM qe GROUP BY query_id),
        bn AS (SELECT vec_id, any_value(label) AS label,
                      sqrt(sum(v * v)) AS nrm
               FROM be GROUP BY vec_id),
        dots AS (
            SELECT qe.query_id, be.vec_id, sum(qe.v * be.v) AS dot
            FROM qe JOIN be ON qe.i = be.i
            GROUP BY qe.query_id, be.vec_id
        ),
        sims AS (
            SELECT d.query_id, d.vec_id, d.dot / (qn.nrm * bn.nrm) AS s
            FROM dots d
            JOIN qn ON d.query_id = qn.query_id
            JOIN bn ON d.vec_id = bn.vec_id
            WHERE qn.label = bn.label
        ),
        ranked AS (
            SELECT query_id, vec_id, round(s, 6) AS sim,
                   row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY round(s, 6) DESC, vec_id ASC
                   ) AS rank
            FROM sims
        )
        SELECT query_id, vec_id, sim, rank
        FROM ranked WHERE rank <= {k}
        ORDER BY query_id, rank
    """


# ------------------------------------------------------------- rare terms

RARE_MAX_DF = 1      # hapax legomena (the ES rare_terms default)
RARE_K = 100         # bounded report: K lexicographically-first terms
RARE_PLANT_MOD = 3   # docs planted with a unique token (gate synth)


def _plant_rare(t: pa.Table) -> pa.Table:
    """Gate synth: the 31-term synthetic vocabulary has min df = 25, so
    a rare-tail gate would be load-free.  Append one doc-unique token
    (``d<doc_id>x``) to every RARE_PLANT_MOD-th doc — hapax by
    construction; the oracle replays the same concatenation."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    texts = t["text"].to_pylist()
    out = [(x or "") + f" d{i}x" if i % RARE_PLANT_MOD == 0 else (x or "")
           for i, x in zip(ids, texts)]
    return pa.table({
        "doc_id": t["doc_id"],
        "text": pa.array(out, type=pa.string()),
    })


def rare_terms(sf_dir: str, *, max_df: int = RARE_MAX_DF,
               k: int = RARE_K) -> pa.Table:
    """rare_terms — the ES long-tail aggregation (inverse of
    top_terms/significant_terms): terms whose document frequency is at
    most ``max_df``.  By Heaps' law the rare tail IS most of the
    vocabulary, so the full answer is never driver-safe; the gate
    reports the ``k`` lexicographically-first rare terms plus the
    total rare count on every row (the bounded contract a UI pages
    through).

    Scale shape: the _TermAgg combiner → term groupby → a DISTRIBUTED
    ``df <= max_df`` filter; the count is a Dataset count and the
    sample a distributed sort+limit — the driver receives k rows and
    one integer, never the tail.  (ES caps the same blow-up with a
    bloom-filtered streaming agg; exact here.)"""
    empty = pa.table({
        "term": pa.array([], type=pa.string()),
        "df": pa.array([], type=pa.int64()),
        "n_rare_total": pa.array([], type=pa.int64()),
    })
    rare = (
        _docs(sf_dir)
        .map_batches(_plant_rare, batch_format="pyarrow")
        .map_batches(_term_agg_task, batch_format="pyarrow",
                     batch_size=512)
        .groupby("term")
        .aggregate(Sum("df_part", alias_name="df"))
    )
    try:
        rare = rare.filter(expr=f"df <= {int(max_df)}").materialize()
    except Exception:       # zero-row corpus: schema-dropped aggregate
        return empty
    n_rare = int(rare.count())
    if n_rare == 0:
        return empty
    top = rare.sort("term").limit(k).to_pandas()
    return pa.table({
        "term": pa.array(top["term"].tolist(), type=pa.string()),
        "df": pa.array(top["df"].astype("int64").tolist(),
                       type=pa.int64()),
        "n_rare_total": pa.array([n_rare] * len(top), type=pa.int64()),
    })


def rare_terms_sql(*, max_df: int = RARE_MAX_DF, k: int = RARE_K) -> str:
    """Oracle: per-term df + the same bounded rare-tail report."""
    return f"""
        WITH planted AS (
            SELECT doc_id,
                   CASE WHEN doc_id % {RARE_PLANT_MOD} = 0
                        THEN text || ' d' || CAST(doc_id AS VARCHAR) || 'x'
                        ELSE text END AS text
            FROM documents),
        toks AS (SELECT doc_id, unnest(regexp_split_to_array(
                     lower(text), '[^a-z0-9]+')) AS term
                 FROM planted),
        dfs AS (SELECT term, count(DISTINCT doc_id) AS df
                FROM toks WHERE term <> '' GROUP BY term),
        rare AS (SELECT term, df FROM dfs WHERE df <= {int(max_df)})
        SELECT term, CAST(df AS BIGINT) AS df,
               CAST((SELECT count(*) FROM rare) AS BIGINT) AS n_rare_total
        FROM rare ORDER BY term LIMIT {int(k)}
    """


# -------------------------------------------------------- composite paging

COMPOSITE_PAGE_SIZE = 8


def composite_page2(sf_dir: str, *,
                    size: int = COMPOSITE_PAGE_SIZE) -> pa.Table:
    """composite aggregation + after-key paging (the ES pattern for
    walking an unbounded bucket space): buckets keyed (source, lang)
    in key order, page ``size``; this gate returns PAGE 2, computed the
    way a real pager must — with the strict-successor predicate
    ``(source > sa) OR (source = sa AND lang > la)`` from page 1's
    after-key, NOT by offset-slicing a full bucket list.  The oracle
    verifies the predicate algebra independently via ORDER BY/OFFSET.

    Scale shape: the bucket table comes from the source_mix per-batch
    combiner (O(sources × langs) rows); paging is O(page) driver work.
    At a truly unbounded key space the after-key predicate pushes into
    the bucket groupby's pre-filter — which is exactly why composite
    paging exists instead of OFFSET."""
    from ray.data.aggregate import Sum

    from ..functions.tables import read_parquet_nometa, typed_pandas

    def partial(t: pa.Table) -> pa.Table:
        g = (t.select(["source", "lang", "n_chars"])
             .group_by(["source", "lang"])
             .aggregate([("n_chars", "count")]))
        return pa.table({
            "source": g["source"],
            "lang": g["lang"],
            "n_docs": g["n_chars_count"].cast(pa.int64()),
        })

    buckets = typed_pandas(
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["source", "lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "lang"])
        .aggregate(Sum("n_docs", alias_name="n_docs")),
        {"source": "object", "lang": "object", "n_docs": "int64"},
    ).sort_values(["source", "lang"]).reset_index(drop=True)
    empty = pa.table({
        "source": pa.array([], type=pa.string()),
        "lang": pa.array([], type=pa.string()),
        "n_docs": pa.array([], type=pa.int64()),
    })
    if len(buckets) <= size:
        return empty
    # page 1's after-key, then the strict-successor predicate
    sa, la = buckets.iloc[size - 1][["source", "lang"]]
    page2 = buckets[(buckets["source"] > sa)
                    | ((buckets["source"] == sa)
                       & (buckets["lang"] > la))].head(size)
    if not len(page2):
        return empty
    return pa.table({
        "source": pa.array(page2["source"].tolist(), type=pa.string()),
        "lang": pa.array(page2["lang"].tolist(), type=pa.string()),
        "n_docs": pa.array(page2["n_docs"].astype("int64").tolist(),
                           type=pa.int64()),
    })


def composite_page2_sql(*, size: int = COMPOSITE_PAGE_SIZE) -> str:
    """Oracle: OFFSET paging over the ordered bucket list — an
    INDEPENDENT formulation that equals the after-key predicate iff
    the successor algebra is right."""
    return f"""
        SELECT source, lang, count(*) AS n_docs
        FROM documents
        GROUP BY source, lang
        ORDER BY source, lang
        LIMIT {int(size)} OFFSET {int(size)}
    """
