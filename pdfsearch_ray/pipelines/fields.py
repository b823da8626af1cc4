"""BM25F multi-field ranking (Robertson & Zaragoza 2009, §3.4;
Zaragoza et al., TREC-13 "Microsoft Cambridge at TREC-13").

Web pages are field-structured (title vs body), and field-weighted
BM25F is the standard upgrade over single-field BM25 for them.  The
corpus has one text column, so the field split is positional — the
industry-standard fallback when structure is lost: ``title`` = the
first ``BM25F_TITLE_LEN`` analyzed tokens, ``body`` = the rest.  Per
term/doc/field the tf is soft-normalized by field length, then fields
blend with weights BEFORE the BM25 saturation (the defining BM25F
property — weighting after saturation would just be a boosted-sum,
which the ``boosted_topk`` gate already covers):

    tf~_f   = tf_f / (1 + b_f * (dl_f / avgdl_f - 1))
    wtf     = w_title * tf~_title + w_body * tf~_body
    score   = Σ_t idf_t * wtf / (k1 + wtf)

idf uses the cross-field df (docs containing the term in ANY field)
and the same Lucene-style log shape as every other gate.

Scale shape (a three-phase streaming scan, as ``vsm_lnc_ltc_topk``): ONE
vectorized tokenize pass (the ``_tok_codes`` dictionary-coded kernel —
no per-token Python) emits a NARROW per-matching-doc row
``(doc_id, dl_t, dl_b, tf_t<j>, tf_b<j>)`` plus per-batch stats
sentinels; a stats reduce brings O(blocks) partial rows to the driver
(N, avgdl per field, df per term); a scoring pass re-reads the narrow
spill per-row with a per-batch top-K cut, so the driver merge sees
O(K · blocks) rows.  No shuffle anywhere.

Oracle: DuckDB re-derives token ordinality (the positional field
split), both per-field dl and avgdl, cross-field df, and the exact
soft-normalize → weight → saturate algebra from raw text.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..index.codec import bm25_idf

__all__ = [
    "bm25f_topk",
    "bm25f_topk_sql",
    "BM25F_QUERIES",
    "BM25F_TITLE_LEN",
    "BM25F_K",
]

BM25F_TITLE_LEN = 8
BM25F_W_TITLE = 2.0
BM25F_W_BODY = 1.0
BM25F_B_TITLE = 0.5
BM25F_B_BODY = 0.75
BM25F_K1 = 1.2
BM25F_K = 10
BM25F_QUERIES = ("data processing pipeline", "fast scan merge",
                 "customer information query")


class _BM25FScan:
    """One vectorized pass: per batch emit matching-doc rows with
    per-field tf columns for the query terms, plus a stats sentinel
    (doc_id = -1) carrying nd / Σdl_t / Σdl_b / per-term df partials."""

    def __init__(self, qterms: tuple[str, ...]):
        self.qterms = tuple(sorted(qterms))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .queries import _tok_codes

        m = len(self.qterms)
        codes, doc_idx, vocab = _tok_codes(batch)
        nrows = batch.num_rows
        dl = np.bincount(doc_idx, minlength=nrows).astype(np.int64)
        # token ordinal within doc (0-based, post-filter — the same
        # ordinality the oracle's generate_series sees 1-based)
        starts = np.zeros(nrows, dtype=np.int64)
        np.cumsum(dl[:-1], out=starts[1:])
        pos_in_doc = np.arange(codes.size, dtype=np.int64) - \
            starts[doc_idx]
        is_title = pos_in_doc < BM25F_TITLE_LEN
        # vocab code -> query slot
        slot = np.full(len(vocab), -1, dtype=np.int64)
        for j, t in enumerate(self.qterms):
            try:
                slot[vocab.index(t)] = j
            except ValueError:
                pass
        tok_slot = slot[codes]
        hit = tok_slot >= 0
        tf_t = np.zeros((nrows, m), dtype=np.int64)
        tf_b = np.zeros((nrows, m), dtype=np.int64)
        ht = hit & is_title
        hb = hit & ~is_title
        np.add.at(tf_t, (doc_idx[ht], tok_slot[ht]), 1)
        np.add.at(tf_b, (doc_idx[hb], tok_slot[hb]), 1)
        any_tf = (tf_t + tf_b) > 0
        keep = any_tf.any(axis=1)
        dl_t = np.minimum(dl, BM25F_TITLE_LEN)
        dl_b = dl - dl_t
        has_tok = dl > 0
        ids = batch["doc_id"].to_numpy()[keep]
        cols = {
            "doc_id": pa.array(np.r_[ids, [-1]], type=pa.int64()),
            "dl_t": pa.array(np.r_[dl_t[keep],
                                   [int(dl_t[has_tok].sum())]]),
            "dl_b": pa.array(np.r_[dl_b[keep],
                                   [int(dl_b[has_tok].sum())]]),
            "nd": pa.array(np.r_[np.zeros(int(keep.sum()), dtype=np.int64),
                                 [int(has_tok.sum())]]),
        }
        for j in range(m):
            df_j = int(any_tf[:, j].sum())
            cols[f"tft{j}"] = pa.array(np.r_[tf_t[keep, j], [df_j]])
            cols[f"tfb{j}"] = pa.array(np.r_[tf_b[keep, j], [0]])
        return pa.table(cols)


def bm25f_topk(sf_dir: str) -> pa.Table:
    """BM25F two-field gate over all BM25F_QUERIES in one shared
    tokenize spill (slots are the union vocabulary of all queries)."""
    from .queries import _docs

    all_terms = tuple(sorted({t for q in BM25F_QUERIES
                              for t in _analyze(q)}))
    m = len(all_terms)
    spill = _docs(sf_dir).map_batches(
        _BM25FScan(all_terms), batch_format="pyarrow", batch_size=512,
    ).materialize()

    def stats_partial(t: pa.Table) -> pa.Table:
        s = t.filter(pc.equal(t["doc_id"], -1))
        cols = {
            "nd": pa.array([int(pc.sum(s["nd"]).as_py() or 0)]),
            "dl_t": pa.array([int(pc.sum(s["dl_t"]).as_py() or 0)]),
            "dl_b": pa.array([int(pc.sum(s["dl_b"]).as_py() or 0)]),
        }
        for j in range(m):
            cols[f"tft{j}"] = pa.array(
                [int(pc.sum(s[f"tft{j}"]).as_py() or 0)])
        return pa.table(cols)

    st = spill.map_batches(stats_partial, batch_format="pyarrow").to_pandas()
    n = int(st["nd"].sum()) if "nd" in st.columns else 0
    empty = pa.table({"query": pa.array([], type=pa.string()),
                      "doc_id": pa.array([], type=pa.int64()),
                      "score": pa.array([], type=pa.float64()),
                      "rank": pa.array([], type=pa.int64())})
    if n == 0:
        return empty
    avg_t = float(st["dl_t"].sum()) / n
    avg_b = float(st["dl_b"].sum()) / n
    dfs = {t: int(st[f"tft{j}"].sum()) for j, t in enumerate(all_terms)}
    idf = {t: float(bm25_idf(n, df)) if df else 0.0
           for t, df in dfs.items()}
    slot_of = {t: j for j, t in enumerate(all_terms)}

    out_parts = []
    for q in sorted(BM25F_QUERIES):
        qterms = sorted(set(_analyze(q)))
        qslots = [(t, slot_of[t]) for t in qterms if dfs.get(t)]
        if not qslots:
            continue

        def score_batch(t: pa.Table, qslots=tuple(qslots)) -> pa.Table:
            t = t.filter(pc.not_equal(t["doc_id"], -1))
            out_schema = pa.schema([("doc_id", pa.int64()),
                                    ("score", pa.float64())])
            if t.num_rows == 0:
                return out_schema.empty_table()
            dl_t = t["dl_t"].to_numpy().astype(np.float64)
            dl_b = t["dl_b"].to_numpy().astype(np.float64)
            den_t = 1.0 + BM25F_B_TITLE * (dl_t / avg_t - 1.0)
            den_b = 1.0 + BM25F_B_BODY * (dl_b / avg_b - 1.0)
            score = np.zeros(len(dl_t))
            for term, j in qslots:
                tft = t[f"tft{j}"].to_numpy().astype(np.float64)
                tfb = t[f"tfb{j}"].to_numpy().astype(np.float64)
                wtf = (BM25F_W_TITLE * tft / den_t
                       + BM25F_W_BODY * tfb / den_b)
                score += idf[term] * wtf / (BM25F_K1 + wtf)
            score_r = np.round(score, 6)
            ids = t["doc_id"].to_numpy()
            nz = score_r > 0
            ids, score_r = ids[nz], score_r[nz]
            top = np.lexsort((ids, -score_r))[:BM25F_K]
            return pa.table({
                "doc_id": pa.array(ids[top], type=pa.int64()),
                "score": pa.array(score_r[top], type=pa.float64()),
            })

        cand = spill.map_batches(
            score_batch, batch_format="pyarrow").to_pandas()
        if cand.empty:
            continue
        cand = cand.sort_values(["score", "doc_id"],
                                ascending=[False, True],
                                kind="mergesort").head(BM25F_K)
        cand["query"] = q
        cand["rank"] = range(1, len(cand) + 1)
        out_parts.append(cand)
    if not out_parts:
        return empty
    import pandas as pd

    allc = pd.concat(out_parts, ignore_index=True)
    return pa.table({
        "query": pa.array(allc["query"].tolist(), type=pa.string()),
        "doc_id": pa.array(allc["doc_id"].tolist(), type=pa.int64()),
        "score": pa.array(allc["score"].tolist(), type=pa.float64()),
        "rank": pa.array(allc["rank"].tolist(), type=pa.int64()),
    })


def _analyze(q: str) -> list[str]:
    from ..analysis.analyzer import analyze_simple

    return analyze_simple(q)


def bm25f_topk_sql(queries=BM25F_QUERIES, *, tl: int = BM25F_TITLE_LEN,
                   k: int = BM25F_K, k1: float = BM25F_K1,
                   wt: float = BM25F_W_TITLE, wb: float = BM25F_W_BODY,
                   bt: float = BM25F_B_TITLE,
                   bb: float = BM25F_B_BODY) -> str:
    """Oracle: positional field split (i <= tl), per-field dl/avgdl,
    cross-field df and the soft-normalize → weight → saturate algebra
    all recomputed from raw text."""
    from .oracles import _sq

    parts = [
        "WITH arrs AS (SELECT doc_id, list_filter(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr FROM documents),",
        "pos AS (SELECT doc_id, arr[i] AS term, i FROM (SELECT doc_id, "
        "arr, unnest(generate_series(1, len(arr))) AS i FROM arrs)),",
        f"dl2 AS (SELECT doc_id, least(len(arr), {tl}) AS dl_t, "
        f"len(arr) - least(len(arr), {tl}) AS dl_b FROM arrs "
        "WHERE len(arr) > 0),",
        "stats AS (SELECT count(*) AS n, avg(dl_t) AS avg_t, "
        "avg(dl_b) AS avg_b FROM dl2)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(_analyze(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),
        tff{qi} AS (
            SELECT p.doc_id, p.term,
                   count(*) FILTER (WHERE p.i <= {tl}) AS tf_t,
                   count(*) FILTER (WHERE p.i > {tl}) AS tf_b
            FROM pos p JOIN q{qi} USING (term)
            GROUP BY p.doc_id, p.term
        ),
        dfs{qi} AS (SELECT term, count(*) AS df FROM tff{qi} GROUP BY term),
        sc{qi} AS (
            SELECT f.doc_id,
                   sum(ln(1 + (stats.n - dfs{qi}.df + 0.5)
                          / (dfs{qi}.df + 0.5))
                       * ({wt} * f.tf_t / (1 + {bt} * (d.dl_t / stats.avg_t - 1))
                          + {wb} * f.tf_b / (1 + {bb} * (d.dl_b / stats.avg_b - 1)))
                       / ({k1} + ({wt} * f.tf_t / (1 + {bt} * (d.dl_t / stats.avg_t - 1))
                                  + {wb} * f.tf_b / (1 + {bb} * (d.dl_b / stats.avg_b - 1))))
                   ) AS s
            FROM tff{qi} f
            CROSS JOIN stats
            JOIN dfs{qi} ON f.term = dfs{qi}.term
            JOIN dl2 d ON f.doc_id = d.doc_id
            GROUP BY f.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi} WHERE round(s, 6) > 0
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")
