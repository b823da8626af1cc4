"""Learning-to-rank re-ranking: a linear feature blend over the
retrieval candidates.

The canonical last stage of a web ranking stack (Liu, "Learning to
Rank for IR", Found. Trends IR 2009 — the linear/pointwise baseline
every LTR system regression-tests against): extract a feature vector
per (query, doc) candidate and score with a fixed linear model,

    f1 = BM25 relevance (unrounded disjunctive sum)
    f2 = freshness      HALF/(HALF + age_days)   (reciprocal decay)
    f3 = coverage       matched_terms / query_terms
    score = round(W1·f1 + W2·f2 + W3·f3, 6)      (ONE final round)

Age synthesizes deterministically as mix64(doc_id) % 365 — the
recency-gate discipline (scorequery.py:496): the oracle re-derives the
synth chain bit-for-bit in HUGEINT limb arithmetic, so it is data, not
fixture.  Blending UNROUNDED features and rounding once avoids the
grid half-boundary flake (the MMR lesson, diversify.py).

Scale shape: identical to boosted/recency — candidate generation is
the posting-pruned TAAT pass; the feature extraction is a handful of
aligned vector ops on the per-shard match stream (age/quality would be
docs-table columns at scale) and the model is a dot product.  No extra
I/O, no shuffle; at 10^12 docs this re-rank runs per shard and the
(score desc, doc asc) top-K merge is exact.

Weights are FIXED model parameters (a trained model is state, not
data); the oracle replays feature extraction and the blend.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["ltr_rerank_topk", "ltr_sql", "LTR_QUERIES", "LTR_K",
           "LTR_W", "LTR_HALF", "LTR_MOD"]

LTR_QUERIES = ("data stream filter", "fast scan merge",
               "big dup table")
LTR_K = 10
LTR_W = (1.0, 2.0, 1.5)      # (bm25, freshness, coverage)
LTR_HALF = 30                # freshness half-life, days
LTR_MOD = 365                # synthesized age range


def ltr_rerank_topk(sf_dir: str, *, w=LTR_W) -> pa.Table:
    """(query, doc_id, n_matched, age_days, score, rank).  w=(1,0,0)
    degenerates to the plain BM25 ranking (pytest-pinned)."""
    from ..analysis.analyzer import analyze_simple
    from ..functions.hashing import mix64
    from .expand import simple_index_cached
    from .query import BM25Index
    from .scorequery import per_term_scores

    idx = BM25Index(simple_index_cached(sf_dir))
    w1, w2, w3 = w
    out_q, out_d, out_m, out_a, out_s = [], [], [], [], []
    for q in sorted(LTR_QUERIES):
        terms = sorted(set(analyze_simple(q)))
        # per-term contributions -> union candidates with sum + count
        acc_ids, acc_sc, acc_nm = (np.empty(0, dtype=np.uint64),
                                   np.empty(0), np.empty(0, dtype=np.int64))
        for ids_t, sc_t in per_term_scores(idx, terms).values():
            if not ids_t.size:
                continue
            union = np.union1d(acc_ids, ids_t)
            sc = np.zeros(union.size)
            nm = np.zeros(union.size, dtype=np.int64)
            if acc_ids.size:
                pos = np.searchsorted(union, acc_ids)
                sc[pos] += acc_sc
                nm[pos] += acc_nm
            pos = np.searchsorted(union, ids_t)
            sc[pos] += sc_t
            nm[pos] += 1
            acc_ids, acc_sc, acc_nm = union, sc, nm
        if not acc_ids.size:
            continue
        age = (mix64(acc_ids.astype(np.uint64))
               % np.uint64(LTR_MOD)).astype(np.float64)
        fresh = float(LTR_HALF) / (float(LTR_HALF) + age)
        cov = acc_nm / float(len(terms))
        score = np.round(w1 * acc_sc + w2 * fresh + w3 * cov, 6)
        ids64 = acc_ids.astype(np.int64)
        top = np.lexsort((ids64, -score))[:LTR_K]
        out_q.extend([q] * top.size)
        out_d.extend(ids64[top].tolist())
        out_m.extend(acc_nm[top].tolist())
        out_a.extend(age[top].astype(np.int64).tolist())
        out_s.extend(score[top].tolist())
    ranks: list[int] = []
    prev = None
    for q in out_q:
        ranks.append(1 if q != prev else ranks[-1] + 1)
        prev = q
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "n_matched": pa.array(out_m, type=pa.int64()),
        "age_days": pa.array(out_a, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(ranks, type=pa.int64()),
    })


def ltr_sql(queries=LTR_QUERIES, *, k: int = LTR_K,
            w=LTR_W, half: int = LTR_HALF, mod: int = LTR_MOD,
            k1: float = 1.2, b: float = 0.75) -> str:
    """Oracle: BM25 chain (unrounded), matched-term counts, the mix64
    age synth in HUGEINT limbs, and the linear blend."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    U32, U64 = 1 << 32, 1 << 64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(x: str, c: int) -> str:
        ch, cl = c >> 32, c % U32
        return (f"((({x} % {U32}) * {cl} + "
                f"((({x} % {U32}) * {ch} + ({x} >> 32) * {cl}) % {U32})"
                f" * {U32}) % {U64})")

    w1, w2, w3 = w
    parts = [
        "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+')) AS term FROM documents),",
        "tok AS (SELECT * FROM toks WHERE term <> ''),",
        "dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),",
        "ag0 AS (SELECT doc_id, CAST(doc_id AS HUGEINT) AS x"
        " FROM documents),",
        f"ag1 AS (SELECT doc_id, {mulmod('xor(x, x >> 30)', C1)} AS x"
        " FROM ag0),",
        f"ag2 AS (SELECT doc_id, {mulmod('xor(x, x >> 27)', C2)} AS x"
        " FROM ag1),",
        f"ages AS (SELECT doc_id, CAST(xor(x, x >> 31) % {mod} AS BIGINT)"
        " AS age FROM ag2)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        nt = len(terms)
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),
        tfs{qi} AS (
            SELECT t.doc_id, t.term, count(*) AS tf
            FROM tok t JOIN q{qi} USING (term) GROUP BY t.doc_id, t.term
        ),
        dfs{qi} AS (SELECT term, count(*) AS df FROM tfs{qi} GROUP BY term),
        sc{qi} AS (
            SELECT tfs{qi}.doc_id, count(*) AS nm,
                   sum(ln(1 + (stats.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                       * tfs{qi}.tf / (tfs{qi}.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                   ) AS s
            FROM tfs{qi}
            CROSS JOIN stats
            JOIN dfs{qi} ON tfs{qi}.term = dfs{qi}.term
            JOIN dl ON tfs{qi}.doc_id = dl.doc_id
            GROUP BY tfs{qi}.doc_id
        ),
        feat{qi} AS (
            SELECT sc{qi}.doc_id, sc{qi}.nm, ages.age,
                   round({w1} * sc{qi}.s
                         + {w2} * (CAST({half} AS DOUBLE)
                                   / (CAST({half} AS DOUBLE) + ages.age))
                         + {w3} * (CAST(sc{qi}.nm AS DOUBLE) / {nt}),
                         6) AS score
            FROM sc{qi} JOIN ages ON sc{qi}.doc_id = ages.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id,
                   CAST(nm AS BIGINT) AS n_matched,
                   age AS age_days, score,
                   row_number() OVER (
                       ORDER BY score DESC, doc_id ASC) AS rank
            FROM feat{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")
