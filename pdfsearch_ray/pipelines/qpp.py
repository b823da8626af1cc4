"""Query performance prediction: the CLARITY score.

Cronen-Townsend, Zhou & Croft, "Predicting query performance" (SIGIR
2002): the KL divergence between the query language model (estimated
over the top-K retrieved docs, relevance-model style) and the
collection language model —

    P(w|d)  = λ·tf_wd/dl_d + (1−λ)·cf_w/T       (Jelinek-Mercer)
    P(q|d)  = Π_{t∈q∩V} P(t|d)
    wt(d)   = P(q|d) / Σ_{d'∈top-K} P(q|d')
    P(w|q)  = Σ_{d∈top-K} wt(d)·P(w|d)
    clarity = Σ_{w∈V} P(w|q) · ln( P(w|q) / (cf_w/T) )

High clarity ⇒ the query's result set speaks a focused sub-language
(good retrieval expected); clarity near 0 ⇒ the query is as diffuse
as the corpus (head/stopword queries).  This is the standard search
QUALITY-INTROSPECTION operator a serving stack runs next to ranking —
beyond-reference (bleve has no QPP).

Distribution shape: retrieval runs on the cached simple index (the
engine's own TAAT scorer); the collection LM (cf_w, T) comes from the
same index's dictionary, as `term_df` / `top_terms` read it
(expand.dictionary_stats — vocabulary-sized by Heaps' law);
the K feedback docs' texts arrive via one distributed mask pass
(O(K) rows to the driver); the clarity arithmetic itself is
O(K × |V|) driver work.  At web scale the Σ_w is truncated to the
feedback docs' vocabulary (the published approximation) — here the
full vocab is summed exactly so DuckDB can replay it bit-for-bit.

Oracle: the BM25 retrieval chain, the smoothed LMs (exp·Σ·ln for the
product), the normalized doc weights and the KL sum are all recomputed
by DuckDB from raw text.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["query_clarity", "clarity_sql",
           "CLARITY_QUERIES", "CLARITY_K", "CLARITY_LAMBDA"]

CLARITY_QUERIES = ("data stream filter", "fast scan merge", "dup",
                   "the")
CLARITY_K = 10
CLARITY_LAMBDA = 0.5


def query_clarity(sf_dir: str) -> pa.Table:
    """(query, clarity, n_feedback) — one row per query with at least
    one retrieved doc; clarity rounded to 6 dp."""
    import pyarrow.compute as pc

    from ..analysis.analyzer import analyze_simple
    from .expand import dictionary_stats, simple_index_cached
    from .queries import _docs
    from .query import BM25Index

    d = simple_index_cached(sf_dir)
    st = dictionary_stats(d)
    cf = dict(zip(st["term"].to_pylist(), st["tf"].to_pylist()))
    T = float(sum(cf.values()))
    vocab = sorted(cf)

    idx = BM25Index(d)
    lam = CLARITY_LAMBDA

    # one retrieval per query first, so ONE mask pass fetches every
    # query's feedback docs together
    fb: dict[str, list[int]] = {}
    for q in sorted(CLARITY_QUERIES):
        qt = [t for t in sorted(set(analyze_simple(q))) if cf.get(t)]
        if not qt:
            continue
        ids, sc = idx.score_terms(qt)
        if not ids.size:
            continue
        sc = np.round(sc, 6)
        ids64 = ids.astype(np.int64)
        top = np.lexsort((ids64, -sc))[:CLARITY_K]
        fb[q] = ids64[top].tolist()
    if not fb:
        return pa.table({
            "query": pa.array([], type=pa.string()),
            "clarity": pa.array([], type=pa.float64()),
            "n_feedback": pa.array([], type=pa.int64()),
        })
    need = sorted({d for ids in fb.values() for d in ids})

    def fetch(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch["doc_id"],
                     value_set=pa.array(need, type=pa.int64()))
        return batch.filter(m).select(["doc_id", "text"])

    got = (_docs(sf_dir)
           .map_batches(fetch, batch_format="pyarrow", batch_size=512)
           .to_pandas())
    text_of = dict(zip(got["doc_id"].astype(int), got["text"]))

    out_q, out_c, out_n = [], [], []
    for q in sorted(fb):
        qt = [t for t in sorted(set(analyze_simple(q))) if cf.get(t)]
        docs = fb[q]
        # per-doc smoothed LMs
        tfv, dl = [], []
        for d in docs:
            toks = analyze_simple(text_of[d] or "")
            c: dict[str, int] = {}
            for t in toks:
                c[t] = c.get(t, 0) + 1
            tfv.append(c)
            dl.append(float(len(toks)))
        pqd = np.array([
            float(np.prod([lam * tfv[i].get(t, 0) / dl[i]
                           + (1 - lam) * cf[t] / T for t in qt]))
            for i in range(len(docs))])
        tot = float(pqd.sum())
        if tot <= 0.0:
            continue
        wt = pqd / tot
        clarity = 0.0
        for w in vocab:
            pwc = cf[w] / T
            pwq = float(sum(
                wt[i] * (lam * tfv[i].get(w, 0) / dl[i]
                         + (1 - lam) * pwc)
                for i in range(len(docs))))
            clarity += pwq * np.log(pwq / pwc)
        out_q.append(q)
        out_c.append(round(float(clarity), 6))
        out_n.append(len(docs))
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "clarity": pa.array(out_c, type=pa.float64()),
        "n_feedback": pa.array(out_n, type=pa.int64()),
    })


def clarity_sql(queries=CLARITY_QUERIES, *, k: int = CLARITY_K,
                lam: float = CLARITY_LAMBDA, k1: float = 1.2,
                b: float = 0.75) -> str:
    """Oracle: BM25 retrieval, JM-smoothed doc LMs, normalized doc
    weights, the full-vocab KL sum."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+')) AS term FROM documents),",
        "tok AS (SELECT * FROM toks WHERE term <> ''),",
        "tfa AS (SELECT doc_id, term, count(*) AS tf FROM tok "
        "GROUP BY doc_id, term),",
        "dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),",
        "cf AS (SELECT term, count(*) AS cf FROM tok GROUP BY term),",
        "tot AS (SELECT CAST(count(*) AS DOUBLE) AS t FROM tok)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        qraw{qi}(term) AS (VALUES {qvals}),
        q{qi} AS (SELECT qraw{qi}.term FROM qraw{qi}
                  JOIN cf ON qraw{qi}.term = cf.term),
        tfs{qi} AS (
            SELECT f.doc_id, f.term, f.tf
            FROM tfa f JOIN q{qi} USING (term)
        ),
        dfs{qi} AS (SELECT term, count(*) AS df FROM tfs{qi} GROUP BY term),
        sc{qi} AS (
            SELECT f.doc_id,
                   sum(ln(1 + (stats.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                       * f.tf / (f.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                   ) AS s
            FROM tfs{qi} f
            CROSS JOIN stats
            JOIN dfs{qi} ON f.term = dfs{qi}.term
            JOIN dl ON f.doc_id = dl.doc_id
            GROUP BY f.doc_id
        ),
        fb{qi} AS (
            SELECT doc_id FROM (
                SELECT doc_id, row_number() OVER (
                    ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
                FROM sc{qi}
            ) WHERE rank <= {k}
        ),
        pqd{qi} AS (
            SELECT fb.doc_id,
                   exp(sum(ln({lam} * coalesce(f.tf, 0) / dl.dl
                              + (1 - {lam}) * cf.cf / tot.t))) AS pqd
            FROM fb{qi} fb
            CROSS JOIN q{qi} qq
            JOIN cf ON qq.term = cf.term
            CROSS JOIN tot
            JOIN dl ON fb.doc_id = dl.doc_id
            LEFT JOIN tfa f ON f.doc_id = fb.doc_id AND f.term = qq.term
            GROUP BY fb.doc_id
        ),
        wt{qi} AS (
            SELECT doc_id, pqd / (SELECT sum(pqd) FROM pqd{qi}) AS wt
            FROM pqd{qi}
        ),
        pwq{qi} AS (
            SELECT cf.term,
                   sum(w.wt * ({lam} * coalesce(f.tf, 0) / dl.dl
                               + (1 - {lam}) * cf.cf / tot.t)) AS pwq,
                   any_value(cf.cf / tot.t) AS pwc
            FROM wt{qi} w
            CROSS JOIN cf
            CROSS JOIN tot
            JOIN dl ON w.doc_id = dl.doc_id
            LEFT JOIN tfa f ON f.doc_id = w.doc_id AND f.term = cf.term
            GROUP BY cf.term
        ),
        cl{qi} AS (
            SELECT sum(pwq * ln(pwq / pwc)) AS clarity,
                   (SELECT count(*) FROM fb{qi}) AS nfb
            FROM pwq{qi}
        )""")
        selects.append(f"""
        SELECT '{_sq(q)}' AS query, round(clarity, 6) AS clarity,
               CAST(nfb AS BIGINT) AS n_feedback
        FROM cl{qi} WHERE nfb > 0""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query")
