"""Vector-space-model ranking: SMART lnc.ltc cosine (IIR §6.4).

The second classic scoring family next to BM25 — what SMART/early
Lucene shipped: document vectors weighted lnc (logarithmic tf
``1 + ln tf``, no idf, cosine-normalized over ALL the doc's terms) and
query vectors ltc (log tf × idf ``ln(N/df)``; the query's own norm is
a rank-invariant constant and is conventionally dropped on the lnc.ltc
document side).  score(q, d) = Σ_t idf_t · (1 + ln tf_td) / ‖d‖ with
‖d‖ = sqrt(Σ_{all terms u of d} (1 + ln tf_ud)²).

Unlike the BM25, LM and DFR gates, lnc.ltc does not score from the
shared simple index: the lnc norm needs every term of each doc, and the
index stores postings per term, not a doc's whole term vector.  So the
gate keeps its own three-phase streaming scan:

1. ONE vectorized tokenize pass over `documents` emits a NARROW row
   per doc matching ANY query's terms — (doc_id, norm, tf<j> per union
   term) — plus a per-batch stats sentinel (doc_id = -1: nd, df
   partials).  The per-doc lnc norm is computed INSIDE the pass from
   the batch's dictionary-coded token stream, so nothing
   token-stream-sized survives the stage.
2. Stats reduce: O(blocks) sentinel rows → N and per-term df → idf.
3. Scoring pass over the hit table: per-row cosine, 6-dp round,
   per-batch top-K — the driver merge sees O(K·blocks) rows.

The reference's bleve engine is BM25-only; lnc.ltc is the
beyond-reference second scorer (and the regression baseline IR papers
still report).  Oracle: DuckDB recomputes tokenization, tf, the full
per-doc norm, df/N and the cosine algebra from raw text.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["vsm_lnc_ltc_topk", "vsm_sql", "VSM_QUERIES", "VSM_K",
           "lm_dirichlet_topk", "lm_dirichlet_sql", "LM_QUERIES",
           "LM_K", "LM_MU"]

VSM_QUERIES = ("data stream filter", "fast scan merge", "dup table")
VSM_K = 10


class _VSMScan:
    """One tokenize pass -> (doc_id, norm, tf<j>) hit rows + stats
    sentinels (doc_id=-1: nd, df<j> partials).  Vectorized via the
    dictionary-coded kernel (queries._tok_codes)."""

    def __init__(self, union_terms: tuple[str, ...]):
        self.terms = tuple(sorted(union_terms))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .queries import _tok_codes

        m = len(self.terms)
        codes, doc_idx, vocab = _tok_codes(batch)
        nrows = batch.num_rows
        # per-(doc, term) tf over the WHOLE vocab — needed for the norm
        v = len(vocab) or 1
        key = doc_idx * v + codes
        uk, tf_all = np.unique(key, return_counts=True)
        u_doc = uk // v
        u_code = uk % v
        w = 1.0 + np.log(tf_all.astype(np.float64))
        norm2 = np.zeros(nrows, dtype=np.float64)
        np.add.at(norm2, u_doc, w * w)
        norm = np.sqrt(norm2)
        # query-term tf matrix from the same pair table
        slot = np.full(v, -1, dtype=np.int64)
        for j, t in enumerate(self.terms):
            try:
                slot[vocab.index(t)] = j
            except ValueError:
                pass
        pair_slot = slot[u_code]
        hit = pair_slot >= 0
        tf = np.zeros((nrows, m), dtype=np.int64)
        tf[u_doc[hit], pair_slot[hit]] = tf_all[hit]
        keep = (tf > 0).any(axis=1)
        ids = batch["doc_id"].to_numpy()[keep]
        n_keep = int(keep.sum())
        has_tok = norm2 > 0
        cols = {
            "doc_id": pa.array(np.r_[ids, [-1]], type=pa.int64()),
            "norm": pa.array(np.r_[norm[keep], [0.0]],
                             type=pa.float64()),
            "nd": pa.array(np.r_[np.zeros(n_keep, dtype=np.int64),
                                 [int(has_tok.sum())]]),
        }
        for j in range(m):
            df_j = int((tf[:, j] > 0).sum())
            cols[f"tf{j}"] = pa.array(np.r_[tf[keep, j], [df_j]])
        return pa.table(cols)


def vsm_lnc_ltc_topk(sf_dir: str) -> pa.Table:
    """lnc.ltc cosine top-k gate over `documents` for the fixed query
    set — one shared scan for the union of all query terms, per-query
    scoring from the same distributed hit table.  It tokenizes the raw
    text (``_VSMScan``) instead of reading the shared index because the
    lnc norm needs every term of each doc, which the index does not
    store."""
    import pyarrow.compute as pc

    from ..analysis.analyzer import analyze_simple
    from ..functions.tables import (ranked_table, read_parquet_nometa,
                                    topk_rows)

    per_q = {q: sorted(set(analyze_simple(q))) for q in VSM_QUERIES}
    union = tuple(sorted({t for ts in per_q.values() for t in ts}))
    j_of = {t: j for j, t in enumerate(union)}
    tf_cols = [f"tf{j}" for j in range(len(union))]

    spill = read_parquet_nometa(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
    ).map_batches(
        _VSMScan(union), batch_format="pyarrow", batch_size=512,
    ).materialize()

    def stats_partial(t: pa.Table) -> pa.Table:
        s = t.filter(pc.equal(t["doc_id"], -1))
        cols = {"nd": pa.array([int(pc.sum(s["nd"]).as_py() or 0)],
                               type=pa.int64())}
        for c in tf_cols:
            cols[c] = pa.array([int(pc.sum(s[c]).as_py() or 0)],
                               type=pa.int64())
        return pa.table(cols)

    st = spill.map_batches(
        stats_partial, batch_format="pyarrow").to_pandas()
    n = int(st["nd"].sum()) if "nd" in st.columns else 0
    if n == 0:
        return ranked_table([])
    dfs = {union[j]: int(st[tf_cols[j]].sum())
           for j in range(len(union))}

    def score_batch(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["doc_id"], -1))
        out_schema = pa.schema([("query", pa.string()),
                                ("doc_id", pa.int64()),
                                ("score", pa.float64())])
        if t.num_rows == 0:
            return out_schema.empty_table()
        ids = t["doc_id"].to_numpy()
        norm = t["norm"].to_numpy()
        tfm = {c: t[c].to_numpy().astype(np.float64) for c in tf_cols}
        out_q, out_d, out_s = [], [], []
        for q in sorted(VSM_QUERIES):
            score = np.zeros(len(ids), dtype=np.float64)
            matched = np.zeros(len(ids), dtype=bool)
            for tm in per_q[q]:                 # sorted-term sum order
                df = dfs.get(tm, 0)
                if df == 0:
                    continue
                tf = tfm[tf_cols[j_of[tm]]]
                h = tf > 0
                matched |= h
                score[h] += np.log(n / df) * (1.0 + np.log(tf[h]))
            if not matched.any():
                continue
            sc = np.round(score[matched] / norm[matched], 6)
            mid = ids[matched]
            top = np.lexsort((mid, -sc))[:VSM_K]
            out_q.extend([q] * top.size)
            out_d.extend(mid[top].tolist())
            out_s.extend(sc[top].tolist())
        return pa.table({
            "query": pa.array(out_q, type=pa.string()),
            "doc_id": pa.array(out_d, type=pa.int64()),
            "score": pa.array(out_s, type=pa.float64()),
        })

    cand = spill.map_batches(
        score_batch, batch_format="pyarrow").to_pandas()
    if cand.empty:
        return ranked_table([])
    rows = []
    for q in sorted(VSM_QUERIES):
        g = cand[cand["query"] == q]
        rows.extend(topk_rows(q, g["doc_id"].to_numpy(),
                              g["score"].to_numpy(), VSM_K))
    return ranked_table(rows)


def vsm_sql(queries=VSM_QUERIES, *, k: int = VSM_K) -> str:
    """Oracle: DuckDB recomputes tf over the whole vocab, the per-doc
    lnc norm, df/N, and the ltc query weights from raw text."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+')) AS term FROM documents),",
        "tok AS (SELECT * FROM toks WHERE term <> ''),",
        "tfa AS (SELECT doc_id, term, count(*) AS tf FROM tok "
        "GROUP BY doc_id, term),",
        "nrm AS (SELECT doc_id, sqrt(sum(pow(1 + ln(tf), 2))) AS nrm "
        "FROM tfa GROUP BY doc_id),",
        "stats AS (SELECT count(*) AS n FROM nrm)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),
        tfs{qi} AS (
            SELECT f.doc_id, f.term, f.tf
            FROM tfa f JOIN q{qi} USING (term)
        ),
        dfs{qi} AS (SELECT term, count(*) AS df FROM tfs{qi} GROUP BY term),
        sc{qi} AS (
            SELECT f.doc_id,
                   sum(ln(CAST(stats.n AS DOUBLE) / dfs{qi}.df)
                       * (1 + ln(f.tf))) / any_value(nrm.nrm) AS s
            FROM tfs{qi} f
            CROSS JOIN stats
            JOIN dfs{qi} ON f.term = dfs{qi}.term
            JOIN nrm ON f.doc_id = nrm.doc_id
            GROUP BY f.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# --------------------------------------- LM Dirichlet query likelihood

LM_MU = 100.0   # Dirichlet pseudo-count; ~2·avgdl on this corpus (the
                # classic default 2000 is tuned for ~500-token docs)
LM_QUERIES = ("data stream filter", "fast scan merge", "dup table")
LM_K = 10


def lm_dirichlet_topk(sf_dir: str) -> pa.Table:
    """The THIRD classic scoring family (Zhai & Lafferty SIGIR'01;
    Lucene's LMDirichletSimilarity, no positive clamp): for docs
    matching ≥1 query term,

        score = Σ_{t∈q, tf>0} [ ln(1 + tf / (μ·cf_t/T))
                                + ln(μ / (μ + dl)) ]

    — Dirichlet-smoothed query likelihood, per matched term.  With
    BM25 (probabilistic) and lnc.ltc (vector-space) this completes the
    scoring-family triad every IR platform ships.

    Shape: scored from the shared simple index's postings — per term
    the matching docs' (tf, dl), cf_t = Σ tf, and T = the manifest's
    total_dl — summed in sorted-term order (scorequery.summed_scores)."""
    from ..analysis.analyzer import analyze_simple
    from ..functions.tables import ranked_table, topk_rows
    from .expand import simple_index_cached
    from .query import BM25Index
    from .scorequery import summed_scores

    idx = BM25Index(simple_index_cached(sf_dir))
    T = float(idx.manifest.total_dl)
    mu = LM_MU

    def dirichlet(pl) -> np.ndarray:
        p = float(pl.tf.sum()) / T
        return (np.log(1.0 + pl.tf.astype(np.float64) / (mu * p))
                + np.log(mu / (mu + pl.dl.astype(np.float64))))

    rows = []
    for q in sorted(LM_QUERIES):
        rows.extend(topk_rows(
            q, *summed_scores(idx, analyze_simple(q), dirichlet), LM_K))
    return ranked_table(rows)


def lm_dirichlet_sql(queries=LM_QUERIES, *, k: int = LM_K,
                     mu: float = LM_MU) -> str:
    """Oracle: cf/T collection LM, the per-matched-term Dirichlet
    score and the (score desc, doc asc) top-K."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+')) AS term FROM documents),",
        "tok AS (SELECT * FROM toks WHERE term <> ''),",
        "tfa AS (SELECT doc_id, term, count(*) AS tf FROM tok "
        "GROUP BY doc_id, term),",
        "dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),",
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
        sc{qi} AS (
            SELECT f.doc_id,
                   sum(ln(1 + f.tf / ({mu} * cf.cf / tot.t))
                       + ln({mu} / ({mu} + dl.dl))) AS s
            FROM tfa f
            JOIN q{qi} USING (term)
            JOIN cf ON f.term = cf.term
            CROSS JOIN tot
            JOIN dl ON f.doc_id = dl.doc_id
            GROUP BY f.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")
