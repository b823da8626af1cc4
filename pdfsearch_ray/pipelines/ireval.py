"""IR retrieval-quality evaluation over the on-disk index.

The reference exposes search but never *measures* it; any team running
a fulltext engine (or ranking training data for an LLM retriever)
needs an evaluation harness: given queries and relevance judgments
(qrels), report where the relevant documents land in the ranking.
This module supplies that harness with DETERMINISTIC pseudo-qrels so
the whole evaluation sits under the driver's value hash: a document is
*relevant* to a query iff it contains EVERY query term (the classic
conjunctive-match pseudo-judgment; the same rule as the AND gate,
boolquery.score_terms_conjunctive).  Metrics are integer-exact —
no MAP/NDCG floats to flake the hash:

* ``n_relevant``      — qrel set size,
* ``first_rel_rank``  — rank of the first relevant document in the
  full OR-of-terms BM25 ranking (-1 when the qrel set is empty),
* ``hits_at_10/100``  — relevant documents inside the top 10 / 100.

Ranks use the suite-wide convention (6-dp-rounded score desc, doc_id
asc over EVERY matching doc), so ties resolve identically in the
engine and the DuckDB oracle, which recomputes tokenization, BM25 and
the qrel rule end-to-end from raw text.

Scale shape: the index side touches only the queried terms' posting
blocks (bucket + row-group pruned reads); per query the driver holds
one (ids, scores) pair of the matching-doc postings union — O(df) for
the fixed evaluation query set, never corpus-sized.  A million-query
eval would instead ship the qrels as a broadcast table and evaluate
inside ``map_batches`` over a query-partitioned dataset; the per-query
kernel below is exactly that task body.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["ir_eval", "ir_eval_sql", "IR_QUERIES", "IR_HITS_KS"]

# Mix of head terms (many matches, conjunction common) and a narrow
# conjunction so first_rel_rank/hits spread across the range.
IR_QUERIES = ("data processing pipeline", "stream window merge",
              "query performance", "fast scan merge", "information")
IR_HITS_KS = (10, 100)


def _eval_one(idx, q: str) -> tuple[int, int, int, int]:
    """(n_relevant, first_rel_rank, hits@10, hits@100) for one query —
    the per-task kernel of the at-scale shape described above."""
    from .boolquery import score_terms_conjunctive

    terms = idx.analyze(q)
    ids, sc = idx.score_terms(terms)
    if ids.size == 0:
        return 0, -1, 0, 0
    sc = np.round(sc, 6)
    order = np.lexsort((ids.astype(np.int64), -sc))
    ranked = ids[order]
    rel_ids, _ = score_terms_conjunctive(idx, terms)
    if rel_ids.size == 0:
        return 0, -1, 0, 0
    pos = np.nonzero(np.isin(ranked, rel_ids, assume_unique=True))[0] + 1
    k10, k100 = IR_HITS_KS
    return (int(rel_ids.size), int(pos[0]),
            int((pos <= k10).sum()), int((pos <= k100).sum()))


def ir_eval(sf_dir: str) -> pa.Table:
    """Evaluate the fixed query set against the cached simple index."""
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    rows = [(q, *_eval_one(idx, q)) for q in sorted(IR_QUERIES)]
    return pa.table({
        "query": pa.array([r[0] for r in rows], type=pa.string()),
        "n_relevant": pa.array([r[1] for r in rows], type=pa.int64()),
        "first_rel_rank": pa.array([r[2] for r in rows], type=pa.int64()),
        "hits_at_10": pa.array([r[3] for r in rows], type=pa.int64()),
        "hits_at_100": pa.array([r[4] for r in rows], type=pa.int64()),
    })


def ir_eval_sql(queries=IR_QUERIES, *, k1: float = 1.2,
                b: float = 0.75) -> str:
    """End-to-end oracle: the fulltext_simple_sql BM25 chain per query,
    a full ranking (row_number over ALL matching docs, rounded-score
    desc / doc_id asc), the conjunctive qrel rule as
    ``HAVING count(DISTINCT term) = n``, and the integer metrics."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    k10, k100 = IR_HITS_KS
    parts = [
        "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+')) AS term FROM documents),",
        "tok AS (SELECT * FROM toks WHERE term <> ''),",
        "dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)",
    ]
    selects = []
    for qi, q in enumerate(queries):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),
        tfs{qi} AS (
            SELECT t.doc_id, t.term, count(*) AS tf
            FROM tok t JOIN q{qi} USING (term) GROUP BY t.doc_id, t.term
        ),
        dfs{qi} AS (SELECT term, count(*) AS df FROM tfs{qi} GROUP BY term),
        sc{qi} AS (
            SELECT tfs{qi}.doc_id,
                   sum(ln(1 + (stats.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                       * tfs{qi}.tf / (tfs{qi}.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                   ) AS s
            FROM tfs{qi}
            CROSS JOIN stats
            JOIN dfs{qi} ON tfs{qi}.term = dfs{qi}.term
            JOIN dl ON tfs{qi}.doc_id = dl.doc_id
            GROUP BY tfs{qi}.doc_id
        ),
        rk{qi} AS (
            SELECT doc_id, row_number() OVER (
                ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ),
        rel{qi} AS (
            SELECT doc_id FROM tfs{qi}
            GROUP BY doc_id HAVING count(DISTINCT term) = {len(terms)}
        )""")
        selects.append(f"""
        SELECT '{_sq(q)}' AS query,
               (SELECT count(*) FROM rel{qi}) AS n_relevant,
               coalesce((SELECT min(rank) FROM rk{qi}
                         JOIN rel{qi} USING (doc_id)),
                        CAST(-1 AS BIGINT)) AS first_rel_rank,
               (SELECT count(*) FROM rk{qi} JOIN rel{qi} USING (doc_id)
                WHERE rank <= {k10}) AS hits_at_10,
               (SELECT count(*) FROM rk{qi} JOIN rel{qi} USING (doc_id)
                WHERE rank <= {k100}) AS hits_at_100""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query")


# -------------------------------------------------- graded nDCG@10

NDCG_K = 10


def ndcg_eval(sf_dir: str) -> pa.Table:
    """Graded-relevance evaluation (Järvelin & Kekäläinen TOIS'02):
    grade(q, d) = Σ_t tf_td — raw query-term-mass pseudo-qrels (the
    graded generalization of ir_eval's conjunctive rule).  Raw mass
    deliberately DISAGREES with BM25's saturated, length-normalized
    order (a long doc stuffed with the terms grades highest but BM25
    demotes it), so the metric is discriminative — BM25 lands below
    1.0 on this corpus, which the pytest pins.
    gain = 2^grade − 1,

        DCG@K  = Σ_{r≤K} gain(doc at rank r) / log2(r + 1)
        IDCG@K = the same sum over the K largest grades in the corpus
        nDCG@K = DCG / IDCG            (0 when IDCG is 0)

    over the suite-total-order BM25 ranking (6-dp rounded score desc,
    doc asc).  Floats enter only through the fixed 1/log2(r+1)
    weights; both sides compute the identical algebra and round once.
    Output: (query, dcg10, idcg10, ndcg10, n_graded)."""
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    rows = []
    for q in sorted(IR_QUERIES):
        terms = sorted(set(idx.analyze(q)))
        ids, sc = idx.score_terms(terms)
        if ids.size == 0:
            rows.append((q, 0.0, 0.0, 0.0, 0))
            continue
        sc = np.round(sc, 6)
        ids64 = ids.astype(np.int64)
        order = np.lexsort((ids64, -sc))
        # grades: raw query-term mass per candidate
        grade = np.zeros(ids.size, dtype=np.int64)
        order_ids = np.argsort(ids)
        ids_sorted = ids[order_ids]
        for post in idx.postings(terms).values():
            pos = np.searchsorted(ids_sorted, post.ids)
            grade[order_ids[pos]] += post.tf.astype(np.int64)
        w = 1.0 / np.log2(np.arange(2, NDCG_K + 2, dtype=np.float64))
        top = order[:NDCG_K]
        gains = (2.0 ** grade[top]) - 1.0
        dcg = float((gains * w[:top.size]).sum())
        ideal = np.sort(grade)[::-1][:NDCG_K].astype(np.float64)
        idcg = float((((2.0 ** ideal) - 1.0) * w[:ideal.size]).sum())
        ndcg = dcg / idcg if idcg > 0 else 0.0
        rows.append((q, round(dcg, 6), round(idcg, 6),
                     round(ndcg, 6), int(ids.size)))
    return pa.table({
        "query": pa.array([r[0] for r in rows], type=pa.string()),
        "dcg10": pa.array([r[1] for r in rows], type=pa.float64()),
        "idcg10": pa.array([r[2] for r in rows], type=pa.float64()),
        "ndcg10": pa.array([r[3] for r in rows], type=pa.float64()),
        "n_graded": pa.array([r[4] for r in rows], type=pa.int64()),
    })


def ndcg_eval_sql(queries=IR_QUERIES, *, k: int = NDCG_K,
                  k1: float = 1.2, b: float = 0.75) -> str:
    """Oracle: the BM25 chain, the rank window, per-doc distinct-term
    grades, the 2^g−1 gains and both discounted sums."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+')) AS term FROM documents),",
        "tok AS (SELECT * FROM toks WHERE term <> ''),",
        "dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),
        tfs{qi} AS (
            SELECT t.doc_id, t.term, count(*) AS tf
            FROM tok t JOIN q{qi} USING (term) GROUP BY t.doc_id, t.term
        ),
        dfs{qi} AS (SELECT term, count(*) AS df FROM tfs{qi} GROUP BY term),
        gr{qi} AS (SELECT doc_id, sum(tf) AS grade
                   FROM tfs{qi} GROUP BY doc_id),
        sc{qi} AS (
            SELECT tfs{qi}.doc_id,
                   sum(ln(1 + (stats.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                       * tfs{qi}.tf / (tfs{qi}.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                   ) AS s
            FROM tfs{qi}
            CROSS JOIN stats
            JOIN dfs{qi} ON tfs{qi}.term = dfs{qi}.term
            JOIN dl ON tfs{qi}.doc_id = dl.doc_id
            GROUP BY tfs{qi}.doc_id
        ),
        rk{qi} AS (
            SELECT sc{qi}.doc_id, gr{qi}.grade, row_number() OVER (
                ORDER BY round(s, 6) DESC, sc{qi}.doc_id ASC) AS rank
            FROM sc{qi} JOIN gr{qi} ON sc{qi}.doc_id = gr{qi}.doc_id
        ),
        dcg{qi} AS (
            SELECT coalesce(sum((pow(2, grade) - 1)
                                / (ln(rank + 1) / ln(2))), 0) AS dcg
            FROM rk{qi} WHERE rank <= {k}
        ),
        irk{qi} AS (
            SELECT grade, row_number() OVER (
                ORDER BY grade DESC) AS rank
            FROM rk{qi}
        ),
        idcg{qi} AS (
            SELECT coalesce(sum((pow(2, grade) - 1)
                                / (ln(rank + 1) / ln(2))), 0) AS idcg
            FROM irk{qi} WHERE rank <= {k}
        ),
        nn{qi} AS (SELECT (SELECT count(*) FROM rk{qi}) AS ng)""")
        selects.append(f"""
        SELECT '{_sq(q)}' AS query,
               round(dcg, 6) AS dcg10, round(idcg, 6) AS idcg10,
               round(CASE WHEN idcg > 0 THEN dcg / idcg ELSE 0 END, 6)
                   AS ndcg10,
               CAST(nn{qi}.ng AS BIGINT) AS n_graded
        FROM dcg{qi} CROSS JOIN idcg{qi} CROSS JOIN nn{qi}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query")
