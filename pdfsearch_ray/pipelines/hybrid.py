"""Hybrid retrieval: lexical BM25 + dense cosine, fused with
Reciprocal Rank Fusion (RRF, Cormack/Clarke/Buettcher SIGIR'09).

The reference serves pure lexical hit lists (internal/doclib/
search_pdfs.go); every modern deployment of such an engine pairs it
with a dense retriever and fuses the two ranked lists — RRF is the
fusion every major engine ships (Elasticsearch/OpenSearch `rrf`,
Vespa, Lucene's upcoming hybrid search) because it needs no score
calibration: fused(d) = Σ_lists 1/(k0 + rank_list(d)).

Shape here:

* **Lexical list** — the shared fingerprint-cached simple-analyzer
  index (expand.simple_index_cached); exhaustive OR-of-terms BM25 via
  BM25Index.score_terms over the FULL match set, ranked by the suite
  total order (6-dp rounded score desc, doc_id asc), cut at depth N.
* **Dense list** — per-query cosine over the embeddings table,
  computed as a Ray `map_batches` double-precision matmul against the
  `ray.put`-broadcast query vectors (the ann_cosine_topk shape,
  queries.py:462): per-batch partial top-(N+buffer) by exact score so
  rounding-boundary ties can't be lost, driver merge, ranked
  (6-dp rounded sim desc, vec_id asc), cut at N.  The query vector is
  the embedding of ``vec_id = qvec`` and the candidate set excludes
  the query vector itself (the MLT seed-exclusion convention); the
  embeddings table's vec_id is the documents table's doc_id.
* **Fusion** — rrf = round(Σ 1/(RRF_K0 + rank), 6) over the union of
  the two depth-N lists, final top-K by (rrf desc, doc_id asc).
  Provenance ranks are kept as columns (0 = not retrieved by that
  list — a sentinel rather than NULL so the driver's value hash is
  NaN-free) so a consumer can see which retriever produced each hit.

Scale shape: both retrievals are existing scale paths (block-max
lexical top-k; broadcast-query batched matmul / IVF for dense); the
fusion itself touches only 2·N rows per query — driver state is
O(queries × N), never corpus-sized.

The DuckDB oracle recomputes tokenization, BM25, the double-precision
cosine, both rank windows and the RRF algebra end-to-end from the raw
tables, so both retrievers AND the fusion arithmetic sit under the
driver's value hash.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["hybrid_rrf_topk", "hybrid_rrf_sql",
           "hybrid_interp_topk", "hybrid_interp_sql",
           "hybrid_combmnz_topk", "hybrid_combmnz_sql",
           "HYBRID_QUERIES", "HYBRID_N", "HYBRID_K", "RRF_K0",
           "INTERP_ALPHA"]

# (lexical text query, query vec_id) — the vec_id doubles as the doc
# whose embedding plays the dense query vector.
HYBRID_QUERIES = (("data processing pipeline", 0),
                  ("stream window merge", 1),
                  ("customer information", 2))
HYBRID_N = 50   # per-retriever list depth feeding the fusion
HYBRID_K = 10   # fused result cut
RRF_K0 = 60     # the canonical RRF constant from the paper


def _lex_list(idx, query: str, n: int):
    """Full-match-set BM25 list for ``query`` cut at depth ``n`` →
    (doc_ids, 6-dp scores) in rank order.  Exhaustive scoring
    (score_terms) means the rank window needs no tie-growth loop —
    every match is present."""
    from ..analysis.analyzer import analyze_simple

    ids, sc = idx.score_terms(sorted(set(analyze_simple(query))))
    if not ids.size:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    sc6 = np.round(sc, 6)
    order = np.lexsort((ids.astype(np.int64), -sc6))[:n]
    return ids[order].astype(np.int64), sc6[order]


def _lex_ranked(idx, query: str, n: int):
    """{doc_id: rank} view of _lex_list."""
    ids, _ = _lex_list(idx, query, n)
    return {int(d): r + 1 for r, d in enumerate(ids)}


def _dense_lists(sf_dir: str, qvecs, n: int):
    """Per-query dense cosine lists at depth ``n`` →
    {qvec: (vec_ids, 6-dp sims)} in rank order, via the
    broadcast-matmul batch kernel."""
    import pyarrow.parquet as pq
    import ray

    from ..functions.tables import block_tables, read_parquet_nometa

    qvecs = sorted(set(int(q) for q in qvecs))
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "in", qvecs)])
    if qt.num_rows == 0:             # empty corpus: no query vectors
        return {int(q): (np.array([], dtype=np.int64),
                         np.array([], dtype=np.float64)) for q in qvecs}
    order = np.argsort(qt["vec_id"].to_numpy())
    q_ids = qt["vec_id"].to_numpy()[order]
    qm = np.stack([np.asarray(v, dtype=np.float64)
                   for v in qt["embedding"].to_pylist()])[order]
    qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    ref = ray.put((q_ids, qn))
    # keep n + buffer per batch by EXACT sim so a rounded tie group at
    # the depth boundary can't be orphaned before the global rank
    # (the ann_cosine_topk cutoff discipline, queries.py:497)
    keep = n + 32

    def sims(batch: pa.Table) -> pa.Table:
        q_ids_, qn_ = ray.get(ref)
        ids = batch["vec_id"].to_numpy()
        emb = batch["embedding"].combine_chunks()
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.chunk(0)
        flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        m = flat.reshape(-1, qn_.shape[1])
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        s = mn @ qn_.T
        out_q, out_v, out_s = [], [], []
        for j, qid in enumerate(q_ids_):
            mask = ids != qid          # self-exclusion
            cids, col = ids[mask], s[mask, j]
            if cids.size > keep:
                top = np.lexsort((cids, -col))[:keep]
                cids, col = cids[top], col[top]
            out_q += [int(qid)] * cids.size
            out_v += [int(x) for x in cids]
            out_s += [float(x) for x in col]
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    part = read_parquet_nometa(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
    ).map_batches(sims, batch_format="pyarrow", batch_size=4096)
    tabs = block_tables(part)
    t = pa.concat_tables(tabs) if tabs else pa.schema([
        ("query_id", pa.int64()), ("vec_id", pa.int64()),
        ("sim", pa.float64())]).empty_table()
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    gq = t["query_id"].to_numpy()
    gv = t["vec_id"].to_numpy()
    gs = np.round(t["sim"].to_numpy(), 6)
    for qid in q_ids:
        m = gq == qid
        vids, ss = gv[m], gs[m]
        order = np.lexsort((vids, -ss))[:n]
        out[int(qid)] = (vids[order].astype(np.int64), ss[order])
    return out


def _dense_ranked(sf_dir: str, qvecs, n: int):
    """{qvec: {vec_id: rank}} view of _dense_lists."""
    return {qv: {int(d): r + 1 for r, d in enumerate(ids)}
            for qv, (ids, _) in _dense_lists(sf_dir, qvecs, n).items()}


def hybrid_rrf_topk(sf_dir: str) -> pa.Table:
    """Driver gate: fused lexical+dense top-K with provenance ranks."""
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    dense = _dense_ranked(sf_dir, [qv for _, qv in HYBRID_QUERIES],
                          HYBRID_N)
    cols = {"query": [], "doc_id": [], "rrf_score": [],
            "lex_rank": [], "vec_rank": [], "rank": []}
    for q, qvec in sorted(HYBRID_QUERIES):
        lex = _lex_ranked(idx, q, HYBRID_N)
        vec = dense[qvec]
        fused = []
        for d in set(lex) | set(vec):
            lr, vr = lex.get(d, 0), vec.get(d, 0)
            rrf = round((1.0 / (RRF_K0 + lr) if lr else 0.0)
                        + (1.0 / (RRF_K0 + vr) if vr else 0.0), 6)
            fused.append((d, rrf, lr, vr))
        fused.sort(key=lambda x: (-x[1], x[0]))
        for r, (d, rrf, lr, vr) in enumerate(fused[:HYBRID_K], 1):
            cols["query"].append(q)
            cols["doc_id"].append(d)
            cols["rrf_score"].append(rrf)
            cols["lex_rank"].append(lr)
            cols["vec_rank"].append(vr)
            cols["rank"].append(r)
    return pa.table({
        "query": pa.array(cols["query"], type=pa.string()),
        "doc_id": pa.array(cols["doc_id"], type=pa.int64()),
        "rrf_score": pa.array(cols["rrf_score"], type=pa.float64()),
        "lex_rank": pa.array(cols["lex_rank"], type=pa.int64()),
        "vec_rank": pa.array(cols["vec_rank"], type=pa.int64()),
        "rank": pa.array(cols["rank"], type=pa.int64()),
    })


def hybrid_rrf_sql(queries=HYBRID_QUERIES, *, n: int = HYBRID_N,
                   k: int = HYBRID_K, k0: int = RRF_K0,
                   k1: float = 1.2, b: float = 0.75) -> str:
    """End-to-end RRF oracle: BM25 chain + double-precision cosine +
    both rank windows + the fusion algebra, all recomputed by DuckDB."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq
    from .searchx import _BM25_CHAIN, _score_cte

    parts = list(_BM25_CHAIN)
    parts.append(""",
    be AS (SELECT vec_id, generate_subscripts(embedding, 1) AS i,
                  CAST(unnest(embedding) AS DOUBLE) AS v
           FROM embeddings),
    bn AS (SELECT vec_id, sqrt(sum(v * v)) AS nrm FROM be GROUP BY vec_id)""")
    selects = []
    for qi, (q, qvec) in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),{_score_cte(str(qi), f"q{qi}", k1=k1, b=b)},
        qe{qi} AS (SELECT i, v FROM be WHERE vec_id = {qvec}),
        qn{qi} AS (SELECT sqrt(sum(v * v)) AS nrm FROM qe{qi}),
        sims{qi} AS (
            SELECT b.vec_id,
                   sum(q.v * b.v) / (qn{qi}.nrm * bn.nrm) AS sim
            FROM qe{qi} q JOIN be b USING (i)
            CROSS JOIN qn{qi}
            JOIN bn ON b.vec_id = bn.vec_id
            WHERE b.vec_id <> {qvec}
            GROUP BY b.vec_id, qn{qi}.nrm, bn.nrm
        ),
        lr{qi} AS (
            SELECT doc_id, row_number() OVER (
                ORDER BY round(s, 6) DESC, doc_id ASC) AS r
            FROM sc{qi}
        ),
        vr{qi} AS (
            SELECT vec_id AS doc_id, row_number() OVER (
                ORDER BY round(sim, 6) DESC, vec_id ASC) AS r
            FROM sims{qi}
        ),
        fused{qi} AS (
            SELECT coalesce(l.doc_id, v.doc_id) AS doc_id,
                   coalesce(l.r, 0) AS lex_rank,
                   coalesce(v.r, 0) AS vec_rank,
                   round(coalesce(1.0 / ({k0} + l.r), 0)
                         + coalesce(1.0 / ({k0} + v.r), 0), 6) AS rrf_score
            FROM (SELECT * FROM lr{qi} WHERE r <= {n}) l
            FULL OUTER JOIN (SELECT * FROM vr{qi} WHERE r <= {n}) v
                ON l.doc_id = v.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, rrf_score,
                   lex_rank, vec_rank,
                   row_number() OVER (
                       ORDER BY rrf_score DESC, doc_id ASC) AS rank
            FROM fused{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# -------------------------------------- convex-combination (alpha) fusion

INTERP_ALPHA = 0.5  # lexical weight; (1 - alpha) goes to the dense side


def _minmax(sc6: np.ndarray) -> np.ndarray:
    """Min-max normalize a retrieved list's 6-dp scores; a degenerate
    list (all scores equal) normalizes to all-1.0 — the convention both
    sides of the oracle share."""
    if not sc6.size:
        return sc6
    lo, hi = float(sc6.min()), float(sc6.max())
    if hi == lo:
        return np.ones_like(sc6)
    return (sc6 - lo) / (hi - lo)


def hybrid_interp_topk(sf_dir: str) -> pa.Table:
    """Driver gate: the OTHER canonical hybrid fusion — a convex
    combination of min-max-normalized list scores,
    ``alpha·lex_norm + (1-alpha)·dense_norm`` (the ES/Vespa weighted
    linear blend), over the same depth-N lists as the RRF gate.  RRF is
    calibration-free; the blend preserves score MAGNITUDE — a doc that
    wins its list by a mile stays ahead of a pack of narrow winners,
    which is exactly what RRF erases.  Docs absent from a list
    contribute 0 from that side.  Output keeps the per-side normalized
    scores (0.0 = absent sentinel, NaN-free hash)."""
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    dense = _dense_lists(sf_dir, [qv for _, qv in HYBRID_QUERIES],
                         HYBRID_N)
    cols = {"query": [], "doc_id": [], "mix_score": [],
            "lex_norm": [], "vec_norm": [], "rank": []}
    for q, qvec in sorted(HYBRID_QUERIES):
        lids, lsc = _lex_list(idx, q, HYBRID_N)
        vids, vsc = dense[qvec]
        ln = dict(zip(lids.tolist(), _minmax(lsc).tolist()))
        vn = dict(zip(vids.tolist(), _minmax(vsc).tolist()))
        fused = []
        for d in set(ln) | set(vn):
            a, b = ln.get(d, 0.0), vn.get(d, 0.0)
            fused.append((d, round(INTERP_ALPHA * a
                                   + (1 - INTERP_ALPHA) * b, 6),
                          round(a, 6), round(b, 6)))
        fused.sort(key=lambda x: (-x[1], x[0]))
        for r, (d, mix, a, b) in enumerate(fused[:HYBRID_K], 1):
            cols["query"].append(q)
            cols["doc_id"].append(d)
            cols["mix_score"].append(mix)
            cols["lex_norm"].append(a)
            cols["vec_norm"].append(b)
            cols["rank"].append(r)
    return pa.table({
        "query": pa.array(cols["query"], type=pa.string()),
        "doc_id": pa.array(cols["doc_id"], type=pa.int64()),
        "mix_score": pa.array(cols["mix_score"], type=pa.float64()),
        "lex_norm": pa.array(cols["lex_norm"], type=pa.float64()),
        "vec_norm": pa.array(cols["vec_norm"], type=pa.float64()),
        "rank": pa.array(cols["rank"], type=pa.int64()),
    })


def hybrid_interp_sql(queries=HYBRID_QUERIES, *, n: int = HYBRID_N,
                      k: int = HYBRID_K, alpha: float = INTERP_ALPHA,
                      k1: float = 1.2, b: float = 0.75) -> str:
    """End-to-end oracle for the alpha blend: both retrievals, the
    depth-N windows, the min-max normalization (degenerate list → 1.0)
    and the convex combination all recomputed by DuckDB."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq
    from .searchx import _BM25_CHAIN, _score_cte

    parts = list(_BM25_CHAIN)
    parts.append(""",
    be AS (SELECT vec_id, generate_subscripts(embedding, 1) AS i,
                  CAST(unnest(embedding) AS DOUBLE) AS v
           FROM embeddings),
    bn AS (SELECT vec_id, sqrt(sum(v * v)) AS nrm FROM be GROUP BY vec_id)""")
    selects = []
    for qi, (q, qvec) in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),{_score_cte(str(qi), f"q{qi}", k1=k1, b=b)},
        qe{qi} AS (SELECT i, v FROM be WHERE vec_id = {qvec}),
        qn{qi} AS (SELECT sqrt(sum(v * v)) AS nrm FROM qe{qi}),
        sims{qi} AS (
            SELECT b.vec_id,
                   sum(q.v * b.v) / (qn{qi}.nrm * bn.nrm) AS sim
            FROM qe{qi} q JOIN be b USING (i)
            CROSS JOIN qn{qi}
            JOIN bn ON b.vec_id = bn.vec_id
            WHERE b.vec_id <> {qvec}
            GROUP BY b.vec_id, qn{qi}.nrm, bn.nrm
        ),
        lr{qi} AS (
            SELECT doc_id, round(s, 6) AS s6, row_number() OVER (
                ORDER BY round(s, 6) DESC, doc_id ASC) AS r
            FROM sc{qi}
        ),
        lnorm{qi} AS (
            SELECT doc_id,
                   CASE WHEN max(s6) OVER () = min(s6) OVER () THEN 1.0
                        ELSE (s6 - min(s6) OVER ())
                             / (max(s6) OVER () - min(s6) OVER ())
                   END AS nrm
            FROM lr{qi} WHERE r <= {n}
        ),
        vrr{qi} AS (
            SELECT vec_id AS doc_id, round(sim, 6) AS s6,
                   row_number() OVER (
                       ORDER BY round(sim, 6) DESC, vec_id ASC) AS r
            FROM sims{qi}
        ),
        vnorm{qi} AS (
            SELECT doc_id,
                   CASE WHEN max(s6) OVER () = min(s6) OVER () THEN 1.0
                        ELSE (s6 - min(s6) OVER ())
                             / (max(s6) OVER () - min(s6) OVER ())
                   END AS nrm
            FROM vrr{qi} WHERE r <= {n}
        ),
        blend{qi} AS (
            SELECT coalesce(l.doc_id, v.doc_id) AS doc_id,
                   round({alpha} * coalesce(l.nrm, 0)
                         + (1 - {alpha}) * coalesce(v.nrm, 0), 6)
                       AS mix_score,
                   round(coalesce(l.nrm, 0), 6) AS lex_norm,
                   round(coalesce(v.nrm, 0), 6) AS vec_norm
            FROM lnorm{qi} l FULL OUTER JOIN vnorm{qi} v
                ON l.doc_id = v.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, mix_score,
                   lex_norm, vec_norm,
                   row_number() OVER (
                       ORDER BY mix_score DESC, doc_id ASC) AS rank
            FROM blend{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# ------------------------------------------------------- CombMNZ fusion


def hybrid_combmnz_topk(sf_dir: str) -> pa.Table:
    """The THIRD canonical fusion (Fox & Shaw, TREC-2 1994):
    ``CombMNZ(d) = |lists containing d| × Σ normalized scores`` —
    multiplying by the hit count rewards CONSENSUS between the lexical
    and dense retrievers, the property RRF (rank-only) and the alpha
    blend (magnitude-only) each lack; together the three gates span
    the fusion design space every production hybrid stack picks from.
    Same depth-N lists and min-max normalization as the alpha blend;
    output keeps the list count under the value hash."""
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    dense = _dense_lists(sf_dir, [qv for _, qv in HYBRID_QUERIES],
                         HYBRID_N)
    cols = {"query": [], "doc_id": [], "mnz_score": [],
            "n_lists": [], "rank": []}
    for q, qvec in sorted(HYBRID_QUERIES):
        lids, lsc = _lex_list(idx, q, HYBRID_N)
        vids, vsc = dense[qvec]
        ln = dict(zip(lids.tolist(), _minmax(lsc).tolist()))
        vn = dict(zip(vids.tolist(), _minmax(vsc).tolist()))
        fused = []
        for d in set(ln) | set(vn):
            nz = (d in ln) + (d in vn)
            fused.append((d, round(nz * (ln.get(d, 0.0)
                                         + vn.get(d, 0.0)), 6), nz))
        fused.sort(key=lambda x: (-x[1], x[0]))
        for r, (d, mnz, nz) in enumerate(fused[:HYBRID_K], 1):
            cols["query"].append(q)
            cols["doc_id"].append(d)
            cols["mnz_score"].append(mnz)
            cols["n_lists"].append(nz)
            cols["rank"].append(r)
    return pa.table({
        "query": pa.array(cols["query"], type=pa.string()),
        "doc_id": pa.array(cols["doc_id"], type=pa.int64()),
        "mnz_score": pa.array(cols["mnz_score"], type=pa.float64()),
        "n_lists": pa.array(cols["n_lists"], type=pa.int64()),
        "rank": pa.array(cols["rank"], type=pa.int64()),
    })


def hybrid_combmnz_sql(queries=HYBRID_QUERIES, *, n: int = HYBRID_N,
                       k: int = HYBRID_K, k1: float = 1.2,
                       b: float = 0.75) -> str:
    """CombMNZ oracle: both retrievals, the depth-N windows, min-max
    normalization and the hit-count × score-sum algebra."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq
    from .searchx import _BM25_CHAIN, _score_cte

    parts = list(_BM25_CHAIN)
    parts.append(""",
    be AS (SELECT vec_id, generate_subscripts(embedding, 1) AS i,
                  CAST(unnest(embedding) AS DOUBLE) AS v
           FROM embeddings),
    bn AS (SELECT vec_id, sqrt(sum(v * v)) AS nrm FROM be GROUP BY vec_id)""")
    selects = []
    for qi, (q, qvec) in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),{_score_cte(str(qi), f"q{qi}", k1=k1, b=b)},
        qe{qi} AS (SELECT i, v FROM be WHERE vec_id = {qvec}),
        qn{qi} AS (SELECT sqrt(sum(v * v)) AS nrm FROM qe{qi}),
        sims{qi} AS (
            SELECT b.vec_id,
                   sum(q.v * b.v) / (qn{qi}.nrm * bn.nrm) AS sim
            FROM qe{qi} q JOIN be b USING (i)
            CROSS JOIN qn{qi}
            JOIN bn ON b.vec_id = bn.vec_id
            WHERE b.vec_id <> {qvec}
            GROUP BY b.vec_id, qn{qi}.nrm, bn.nrm
        ),
        lr{qi} AS (
            SELECT doc_id, round(s, 6) AS s6, row_number() OVER (
                ORDER BY round(s, 6) DESC, doc_id ASC) AS r
            FROM sc{qi}
        ),
        lnorm{qi} AS (
            SELECT doc_id,
                   CASE WHEN max(s6) OVER () = min(s6) OVER () THEN 1.0
                        ELSE (s6 - min(s6) OVER ())
                             / (max(s6) OVER () - min(s6) OVER ())
                   END AS nrm
            FROM lr{qi} WHERE r <= {n}
        ),
        vrr{qi} AS (
            SELECT vec_id AS doc_id, round(sim, 6) AS s6,
                   row_number() OVER (
                       ORDER BY round(sim, 6) DESC, vec_id ASC) AS r
            FROM sims{qi}
        ),
        vnorm{qi} AS (
            SELECT doc_id,
                   CASE WHEN max(s6) OVER () = min(s6) OVER () THEN 1.0
                        ELSE (s6 - min(s6) OVER ())
                             / (max(s6) OVER () - min(s6) OVER ())
                   END AS nrm
            FROM vrr{qi} WHERE r <= {n}
        ),
        mnz{qi} AS (
            SELECT coalesce(l.doc_id, v.doc_id) AS doc_id,
                   CAST((CASE WHEN l.doc_id IS NULL THEN 0 ELSE 1 END)
                        + (CASE WHEN v.doc_id IS NULL THEN 0 ELSE 1 END)
                        AS BIGINT) AS n_lists,
                   round(((CASE WHEN l.doc_id IS NULL THEN 0 ELSE 1 END)
                          + (CASE WHEN v.doc_id IS NULL THEN 0 ELSE 1 END))
                         * (coalesce(l.nrm, 0) + coalesce(v.nrm, 0)), 6)
                       AS mnz_score
            FROM lnorm{qi} l FULL OUTER JOIN vnorm{qi} v
                ON l.doc_id = v.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, mnz_score, n_lists,
                   row_number() OVER (
                       ORDER BY mnz_score DESC, doc_id ASC) AS rank
            FROM mnz{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")
