"""Boolean and positional query operators over the on-disk index.

* **Conjunctive (AND) BM25** — the reference carries this as the
  commented-out alternative operator on its one query
  (internal/doclib/search_pdfs.go:176-177,
  ``query0.SetOperator(query.MatchQueryOperatorAnd)``): a document must
  match EVERY query term; scores stay the plain BM25 sum, so AND is a
  candidate-set restriction of the OR gate (same idf/tf math, which is
  exactly what bleve does).
* **Positional phrase counting** — the first operator that reads the
  index's POSITIONS STORE (pos_blob, SURVEY §2 S8) on the query side
  as data rather than via text re-analysis: per phrase, how many
  documents contain the exact token sequence and how many occurrences
  exist.  Adjacency is checked entirely in integer space: positions
  decode in one pass per term (index/codec.decode_positions_flat), docs
  densify to codes, and a start position survives iff ``key + k``
  exists in term k's ``(doc_code << 32) | pos`` key set for every k —
  one ``np.isin`` per phrase term, no per-doc Python.

Scale shape: both operators touch only the queried terms' posting
blocks (bucket + row-group pruned reads, the standard BM25Index path);
phrase keys are O(postings of the rarest term after each isin) and the
intersection shrinks monotonically.  The oracles recompute everything
from raw text in DuckDB — token ordinality via generate_series over
the token array (exactly the index's 1-based bleve position semantics
for the simple analyzer) — so posting decode, position decode and the
adjacency algebra are all under the driver's value hash.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..index.codec import bm25_idf, bm25_wdl

__all__ = [
    "score_terms_conjunctive",
    "phrase_counts_from_index",
    "bm25_and_topk",
    "phrase_match_counts",
    "bm25_and_sql",
    "phrase_match_sql",
    "phrase_topk",
    "phrase_topk_sql",
    "sloppy_phrase_topk",
    "sloppy_phrase_sql",
    "AND_QUERIES",
    "PHRASE_QUERIES",
    "PHRASE_TOPK_QUERIES",
    "PHRASE_TOPK_K",
    "AND_K",
]

AND_QUERIES = ("fast scan merge", "table window",
               "customer query small", "big slow vector")
AND_K = 10
PHRASE_QUERIES = ("fast scan", "table window", "data data",
                  "the big table", "slow merge", "query scan")


def score_terms_conjunctive(idx, terms) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids, scores) of documents matching ALL terms; scores are the
    standard BM25 sum over the query terms (OR scoring restricted to
    the intersected candidate set).  Intersects smallest-first so the
    running set only shrinks."""
    from .scorequery import per_term_scores

    parts = list(per_term_scores(idx, terms).values())
    if not parts or any(ids_t.size == 0 for ids_t, _ in parts):
        return np.empty(0, dtype=np.uint64), np.empty(0)
    parts.sort(key=lambda p: p[0].size)
    ids, sc = parts[0]
    for ids_t, sc_t in parts[1:]:
        common, ia, ib = np.intersect1d(
            ids, ids_t, assume_unique=True, return_indices=True)
        ids, sc = common, sc[ia] + sc_t[ib]
        if ids.size == 0:
            break
    return ids, sc


def _common_docs(posts, terms) -> np.ndarray:
    """Sorted doc_ids holding every one of ``terms`` (``posts`` from
    ``BM25Index.postings``)."""
    common = None
    for t in terms:
        ids = np.sort(posts[t].ids)
        common = ids if common is None else np.intersect1d(
            common, ids, assume_unique=True)
        if common.size == 0:
            break
    return common


def _phrase_bm25(idx, docs: np.ndarray, tf: np.ndarray) -> np.ndarray:
    """BM25 of a phrase-like pseudo-term over its matching ``docs``:
    df = len(docs), per-doc ``tf`` as given, dl from the docs catalog
    (``BM25Index.doc_lengths``) — doc text is never read."""
    m = idx.manifest
    dl = idx.doc_lengths(docs)
    idf = float(bm25_idf(m.n_docs, int(docs.size)))
    return idf * bm25_wdl(tf, dl, m.k1, m.b, m.avgdl)


def _phrase_starts(idx, phrase_terms: list[str]):
    """(sorted candidate doc_ids, packed ``(doc_code << 32) | pos``
    phrase-START keys) of the exact token sequence, from posting
    positions only — the doc text is never read.  doc_code indexes into
    the returned candidate array."""
    empty = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))
    uniq = sorted(set(phrase_terms))
    posts = idx.postings(uniq)
    common = _common_docs(posts, uniq)
    if common.size == 0:
        return empty
    term_keys = {t: posts[t].position_keys(common) for t in uniq}
    starts = term_keys[phrase_terms[0]]
    for k, t in enumerate(phrase_terms[1:], start=1):
        if starts.size == 0:
            return common, np.empty(0, dtype=np.uint64)
        starts = starts[np.isin(starts + np.uint64(k), term_keys[t])]
    return common, starts


def phrase_counts_from_index(idx, phrase_terms: list[str]) -> tuple[int, int]:
    """(n_docs, n_matches) of the exact token sequence, from posting
    positions only — the doc text is never read."""
    _common, starts = _phrase_starts(idx, phrase_terms)
    if starts.size == 0:
        return 0, 0
    n_docs = int(np.unique(starts >> np.uint64(32)).size)
    return n_docs, int(starts.size)


# ------------------------------------------------------------------ gates

def bm25_and_topk(sf_dir: str) -> pa.Table:
    """Conjunctive BM25 gate: every query term must occur; top-k on the
    6-dp rounded score (exhaustive scoring — all candidates present, no
    tie-boundary grow loop needed).  The oracle restates AND as
    ``HAVING count(DISTINCT term) = n`` over the shared BM25 chain."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out_q, out_d, out_s = [], [], []
    for q in sorted(AND_QUERIES):
        ids, sc = score_terms_conjunctive(idx, analyze_simple(q))
        if not ids.size:
            continue
        sc = np.round(sc, 6)
        order = np.lexsort((ids.astype(np.int64), -sc))[:AND_K]
        out_q.extend([q] * order.size)
        out_d.extend(ids[order].astype(np.int64).tolist())
        out_s.extend(sc[order].tolist())
    ranks: list[int] = []
    prev = None
    for q in out_q:
        ranks.append(1 if q != prev else ranks[-1] + 1)
        prev = q
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(ranks, type=pa.int64()),
    })


def phrase_match_counts(sf_dir: str) -> pa.Table:
    """Positional phrase gate: per phrase the matching-doc count and the
    exact occurrence count (overlaps included: 'data data data' holds
    two 'data data' matches), computed from pos_blob alone.  The oracle
    re-derives token ordinality from raw text."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    rows = []
    for q in sorted(PHRASE_QUERIES):
        nd, nm = phrase_counts_from_index(idx, analyze_simple(q))
        rows.append((q, nd, nm))
    return pa.table({
        "query": pa.array([r[0] for r in rows], type=pa.string()),
        "n_docs": pa.array([r[1] for r in rows], type=pa.int64()),
        "n_matches": pa.array([r[2] for r in rows], type=pa.int64()),
    })


# ---------------------------------------------------------------- oracles

def bm25_and_sql(queries=AND_QUERIES, *, k: int = AND_K,
                 k1: float = 1.2, b: float = 0.75) -> str:
    """Conjunctive-BM25 oracle: the fulltext_simple_sql chain with a
    per-query ``HAVING count(DISTINCT term) = n`` candidate filter."""
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
        hit{qi} AS (
            SELECT doc_id FROM tfs{qi}
            GROUP BY doc_id HAVING count(DISTINCT term) = {len(terms)}
        ),
        dfs{qi} AS (SELECT term, count(*) AS df FROM tfs{qi} GROUP BY term),
        sc{qi} AS (
            SELECT tfs{qi}.doc_id,
                   sum(ln(1 + (stats.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                       * tfs{qi}.tf / (tfs{qi}.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                   ) AS s
            FROM tfs{qi}
            JOIN hit{qi} ON tfs{qi}.doc_id = hit{qi}.doc_id
            CROSS JOIN stats
            JOIN dfs{qi} ON tfs{qi}.term = dfs{qi}.term
            JOIN dl ON tfs{qi}.doc_id = dl.doc_id
            GROUP BY tfs{qi}.doc_id
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


def phrase_match_sql(queries=PHRASE_QUERIES) -> str:
    """Phrase oracle: DuckDB re-derives 1-based token ordinality
    (generate_series over the filtered token array — the bleve position
    convention for the simple analyzer) and counts starts where every
    ``arr[i + k]`` equals phrase term k."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    selects = []
    for q in sorted(queries):
        terms = analyze_simple(q)
        conds = " AND ".join(
            f"arr[i + {k}] = '{_sq(t)}'" for k, t in enumerate(terms))
        selects.append(f"""
        SELECT '{_sq(q)}' AS query, count(*) AS n_docs,
               CAST(coalesce(sum(pairs), 0) AS BIGINT) AS n_matches
        FROM (
            SELECT doc_id, count(*) AS pairs FROM pos
            WHERE {conds} GROUP BY doc_id
        )""")
    return (
        "WITH arrs AS (SELECT doc_id, list_filter(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr FROM documents),"
        "pos AS (SELECT doc_id, arr, unnest(generate_series(1, len(arr)))"
        " AS i FROM arrs)"
        + " UNION ALL ".join(selects) + " ORDER BY query"
    )


# ------------------------------------------------------------- proximity

NEAR_W = 3  # max token distance (inclusive), either order
NEAR_QUERIES = ("fast merge", "data window", "customer vector",
                "scan scan", "big zzznope")


def near_counts_from_index(idx, t1: str, t2: str,
                           w: int = NEAR_W) -> tuple[int, int]:
    """(n_docs, n_pairs) where an occurrence of ``t1`` lies within ``w``
    tokens of an occurrence of ``t2`` (either order, distance >= 1) —
    the classic NEAR/slop operator, computed from the positions store.
    Pairs are ordered (p1 from t1, p2 from t2), matching the oracle's
    positional self-join; for t1 == t2 both orders count, exactly as
    SQL's join does."""
    uniq = sorted({t1, t2})
    posts = idx.postings(uniq)
    common = _common_docs(posts, uniq)
    if common.size == 0:
        return 0, 0
    k1 = posts[t1].position_keys(common)
    k2 = np.sort(posts[t2].position_keys(common))
    if not k1.size or not k2.size:
        return 0, 0
    n_pairs = 0
    hit = np.zeros(k1.shape[0], dtype=bool)
    for d in range(-w, w + 1):
        if d == 0 and t1 == t2:
            continue  # a position is not near itself
        if d == 0:
            m = np.isin(k1, k2)
        else:
            m = np.isin(k1 + np.uint64(np.int64(d)).astype(np.uint64), k2) \
                if d > 0 else np.isin(k1 - np.uint64(-d), k2)
        n_pairs += int(m.sum())
        hit |= m
    docs = np.unique(k1[hit] >> np.uint64(32))
    return int(docs.size), n_pairs


def near_match_counts(sf_dir: str) -> pa.Table:
    """NEAR gate: per term pair, documents with the two terms within
    NEAR_W tokens and the exact near-pair count; positions only, text
    never read.  Oracle: positional self-join over re-derived token
    ordinality."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    rows = []
    for q in sorted(NEAR_QUERIES):
        ts = analyze_simple(q)
        nd, npair = near_counts_from_index(idx, ts[0], ts[1])
        rows.append((q, nd, npair))
    return pa.table({
        "query": pa.array([r[0] for r in rows], type=pa.string()),
        "n_docs": pa.array([r[1] for r in rows], type=pa.int64()),
        "n_pairs": pa.array([r[2] for r in rows], type=pa.int64()),
    })


def near_match_sql(queries=NEAR_QUERIES, *, w: int = NEAR_W) -> str:
    """Oracle: per pair, join t1 positions to t2 positions within the
    window (distance >= 1), count pairs and distinct docs."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    selects = []
    for q in sorted(queries):
        t1, t2 = analyze_simple(q)[:2]
        selects.append(f"""
        SELECT '{_sq(q)}' AS query,
               count(DISTINCT doc_id) AS n_docs,
               CAST(count(*) AS BIGINT) AS n_pairs
        FROM (
            SELECT a.doc_id
            FROM pos a JOIN pos b
              ON a.doc_id = b.doc_id
             AND abs(a.i - b.i) <= {w} AND a.i <> b.i
            WHERE a.arr[a.i] = '{_sq(t1)}' AND b.arr[b.i] = '{_sq(t2)}'
        )""")
    return (
        "WITH arrs AS (SELECT doc_id, list_filter(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr FROM documents),"
        "pos AS (SELECT doc_id, arr, unnest(generate_series(1, len(arr)))"
        " AS i FROM arrs)"
        + " UNION ALL ".join(selects) + " ORDER BY query"
    )


# --------------------------------------------------------------- NOT gate

# (positive query, excluded term): the -term / MUST_NOT operator of
# every boolean search API (bleve: NewBooleanQuery MustNot clauses).
NOT_QUERIES = (("data processing pipeline", "merge"),
               ("fast scan", "table"),
               ("customer query", "information"))
NOT_K = 10


def bm25_not_topk(sf_dir: str) -> pa.Table:
    """OR-of-terms BM25 with a MUST_NOT term: candidates containing the
    excluded term are dropped from the ranking; surviving scores are
    the untouched disjunctive BM25 sum (exclusion restricts, never
    re-weights — same law as the filter gate).  The exclusion set
    comes from the index postings (O(df) reads) and is applied as one
    sorted-array membership test; at scale it is a per-shard mask over
    the posting match stream, never a shuffle."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out_q, out_n, out_d, out_s = [], [], [], []
    for q, neg in sorted(NOT_QUERIES):
        ids, sc = idx.score_terms(sorted(set(analyze_simple(q))))
        if not ids.size:
            continue
        neg_terms = sorted(set(analyze_simple(neg)))
        neg_ids, _ = idx.score_terms(neg_terms)
        keep = ~np.isin(ids, neg_ids, assume_unique=True)
        ids, sc = ids[keep], np.round(sc[keep], 6)
        order = np.lexsort((ids.astype(np.int64), -sc))[:NOT_K]
        out_q.extend([q] * order.size)
        out_n.extend([neg] * order.size)
        out_d.extend(ids[order].astype(np.int64).tolist())
        out_s.extend(sc[order].tolist())
    ranks: list[int] = []
    prev = None
    for q in out_q:
        ranks.append(1 if q != prev else ranks[-1] + 1)
        prev = q
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "not_term": pa.array(out_n, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(ranks, type=pa.int64()),
    })


def bm25_not_sql(queries=NOT_QUERIES, *, k: int = NOT_K,
                 k1: float = 1.2, b: float = 0.75) -> str:
    """Shared BM25 chain; exclusion restated as ``doc_id NOT IN
    (SELECT doc_id FROM tok WHERE term IN neg-terms)``."""
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
    for qi, (q, neg) in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        neg_terms = sorted(set(analyze_simple(neg)))
        neg_in = ", ".join(f"'{_sq(t)}'" for t in neg_terms) or "''"
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
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, '{_sq(neg)}' AS not_term, doc_id,
                   round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
            WHERE doc_id NOT IN (
                SELECT doc_id FROM tok WHERE term IN ({neg_in}))
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# --------------------------------------------------- ranked phrase query

PHRASE_TOPK_QUERIES = ("fast scan", "table window", "data data",
                       "slow merge", "query scan")
PHRASE_TOPK_K = 10


def phrase_topk(sf_dir: str) -> pa.Table:
    """RANKED PhraseQuery (Lucene semantics): tf = exact phrase
    occurrence count per doc (positions store), df = docs with ≥ 1
    occurrence, score = idf(N, df) · tf / (tf + k1·(1−b+b·dl/avgdl))
    with the corpus N/avgdl from the manifest — the scoring sibling of
    the counting gate ``phrase_match_counts``.  dl comes from the docs
    catalog (one length per doc), so the doc text is never read.

    Scale shape: the positional intersection is per-candidate-doc work
    over posting blocks (block-pruned reads as usual); per-doc tf is a
    bincount over packed start keys; everything downstream is
    O(matching docs)."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out_q, out_d, out_t, out_s = [], [], [], []
    for q in sorted(PHRASE_TOPK_QUERIES):
        terms = analyze_simple(q)
        common, starts = _phrase_starts(idx, terms)
        if starts.size == 0:
            continue
        codes, tf = np.unique(starts >> np.uint64(32),
                              return_counts=True)
        docs = common[codes.astype(np.int64)].astype(np.int64)
        sc = np.round(_phrase_bm25(idx, docs, tf), 6)
        cut = np.lexsort((docs, -sc))[:PHRASE_TOPK_K]
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


SLOP_QUERIES = ("fast merge", "data window", "table scan",
                "scan scan", "customer vector")
SLOP_W = 4            # max token distance (inclusive), either order
SLOP_SCALE = 12       # lcm(1..SLOP_W): 12/d is exact for d in 1..4
SLOP_K = 10


def sloppy_weights_from_index(idx, t1: str, t2: str, *, w: int = SLOP_W,
                              scale: int = SLOP_SCALE):
    """(doc_ids, integer-scaled sloppy tf) of the two-term proximity
    query: every ordered occurrence pair (p1 from t1, p2 from t2) with
    ``1 <= |p1-p2| <= w`` contributes ``scale // |p1-p2|`` — the Lucene
    sloppy-PhraseQuery frequency shape (closer pairs weigh more),
    scaled to an EXACT integer so the value hash cannot flake on float
    summation order.  Positions store only; doc text never read."""
    uniq = sorted({t1, t2})
    posts = idx.postings(uniq)
    common = _common_docs(posts, uniq)
    if common.size == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    k1 = posts[t1].position_keys(common)
    k2 = np.sort(posts[t2].position_keys(common))
    acc = np.zeros(common.size, dtype=np.int64)
    for d in range(1, w + 1):
        wgt = scale // d
        for keys in (k1 + np.uint64(d), k1 - np.uint64(d)):
            m = np.isin(keys, k2)
            if m.any():
                codes = (k1[m] >> np.uint64(32)).astype(np.int64)
                np.add.at(acc, codes, wgt)
    hit = acc > 0
    return common[hit], acc[hit]


def sloppy_phrase_topk(sf_dir: str) -> pa.Table:
    """Proximity-RANKED phrase (Lucene sloppy PhraseQuery analog): per
    doc, sloppy tf = Σ 1/|p1-p2| over within-window ordered occurrence
    pairs of the two query terms (integer-scaled ×SLOP_SCALE for exact
    arithmetic), df = docs with ≥ 1 pair, score = BM25 over the sloppy
    tf with corpus N/avgdl from the manifest and dl gathered off the
    first term's postings.  The counting sibling is
    ``near_match_counts``; this gate puts the *scoring* algebra —
    distance weighting included — under the driver's value hash.

    Scale shape: identical to phrase_topk — per-candidate posting-block
    work, O(matching docs) downstream, no shuffle."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out_q, out_d, out_w, out_s = [], [], [], []
    for q in sorted(SLOP_QUERIES):
        t1, t2 = analyze_simple(q)[:2]
        docs_u, w12 = sloppy_weights_from_index(idx, t1, t2)
        if docs_u.size == 0:
            continue
        docs = docs_u.astype(np.int64)
        sc = np.round(_phrase_bm25(idx, docs_u,
                                   w12 / float(SLOP_SCALE)), 6)
        cut = np.lexsort((docs, -sc))[:SLOP_K]
        out_q.extend([q] * cut.size)
        out_d.extend(docs[cut].tolist())
        out_w.extend(w12[cut].tolist())
        out_s.extend(sc[cut].tolist())
    ranks: list[int] = []
    prev = None
    for q in out_q:
        ranks.append(1 if q != prev else ranks[-1] + 1)
        prev = q
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "sloppy_tf_x12": pa.array(out_w, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(ranks, type=pa.int64()),
    })


def sloppy_phrase_sql(queries=SLOP_QUERIES, *, w: int = SLOP_W,
                      scale: int = SLOP_SCALE, k: int = SLOP_K,
                      k1: float = 1.2, b: float = 0.75) -> str:
    """Oracle: DuckDB re-derives token ordinality, the within-window
    ordered pair join, the integer distance weights (scale // d is
    exact), df, corpus stats and the BM25 algebra from raw text."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH arrs AS (SELECT doc_id, list_filter(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr FROM documents),",
        "pos AS (SELECT doc_id, arr, unnest(generate_series(1, len(arr)))"
        " AS i FROM arrs),",
        "dl AS (SELECT doc_id, len(arr) AS dl FROM arrs "
        "WHERE len(arr) > 0),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        t1, t2 = analyze_simple(q)[:2]
        parts.append(f""",
        pw{qi} AS (
            SELECT a.doc_id,
                   CAST(sum({scale} // abs(a.i - b.i)) AS BIGINT) AS w12
            FROM pos a JOIN pos b
              ON a.doc_id = b.doc_id
             AND abs(a.i - b.i) <= {w} AND a.i <> b.i
            WHERE a.arr[a.i] = '{_sq(t1)}' AND b.arr[b.i] = '{_sq(t2)}'
            GROUP BY a.doc_id
        ),
        pdf{qi} AS (SELECT count(*) AS df FROM pw{qi}),
        sc{qi} AS (
            SELECT p.doc_id, p.w12,
                   ln(1 + (stats.n - pdf{qi}.df + 0.5) / (pdf{qi}.df + 0.5))
                       * (p.w12 / {scale}.0)
                       / ((p.w12 / {scale}.0)
                          + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                       AS s
            FROM pw{qi} p
            CROSS JOIN stats CROSS JOIN pdf{qi}
            JOIN dl ON p.doc_id = dl.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, w12 AS sloppy_tf_x12,
                   round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


def phrase_topk_sql(queries=PHRASE_TOPK_QUERIES, *,
                    k: int = PHRASE_TOPK_K, k1: float = 1.2,
                    b: float = 0.75) -> str:
    """Oracle: DuckDB re-derives token ordinality, per-doc phrase tf,
    phrase df, corpus stats and the BM25 algebra from raw text."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH arrs AS (SELECT doc_id, list_filter(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr FROM documents),",
        "pos AS (SELECT doc_id, arr, unnest(generate_series(1, len(arr)))"
        " AS i FROM arrs),",
        "dl AS (SELECT doc_id, len(arr) AS dl FROM arrs "
        "WHERE len(arr) > 0),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = analyze_simple(q)
        conds = " AND ".join(
            f"arr[i + {j}] = '{_sq(t)}'" for j, t in enumerate(terms))
        parts.append(f""",
        ptf{qi} AS (
            SELECT doc_id, count(*) AS tf FROM pos
            WHERE {conds} GROUP BY doc_id
        ),
        pdf{qi} AS (SELECT count(*) AS df FROM ptf{qi}),
        sc{qi} AS (
            SELECT p.doc_id, p.tf,
                   ln(1 + (stats.n - pdf{qi}.df + 0.5) / (pdf{qi}.df + 0.5))
                       * p.tf / (p.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                       AS s
            FROM ptf{qi} p
            CROSS JOIN stats CROSS JOIN pdf{qi}
            JOIN dl ON p.doc_id = dl.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, tf AS phrase_tf,
                   round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# ------------------------------------------------- ordered span-near

SPANO_QUERIES = ("fast merge", "merge fast", "data window", "big dup")
SPANO_W = SLOP_W
SPANO_SCALE = SLOP_SCALE
SPANO_K = 10


def ordered_span_weights_from_index(idx, t1: str, t2: str, *,
                                    w: int = SPANO_W,
                                    scale: int = SPANO_SCALE):
    """(doc_ids, integer-scaled ordered span tf): only FORWARD pairs
    count — occurrences with ``1 <= p2 - p1 <= w`` (t1 strictly before
    t2), weight ``scale // (p2 - p1)``.  The in_order=true face of
    Lucene's SpanNearQuery; the unordered face is
    sloppy_weights_from_index, and by construction
    ordered(t1,t2) + ordered(t2,t1) == sloppy(t1,t2) per doc
    (pytest-pinned)."""
    uniq = sorted({t1, t2})
    posts = idx.postings(uniq)
    common = _common_docs(posts, uniq)
    if common.size == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    k1 = posts[t1].position_keys(common)
    k2 = np.sort(posts[t2].position_keys(common))
    acc = np.zeros(common.size, dtype=np.int64)
    for d in range(1, w + 1):
        keys = k1 + np.uint64(d)          # forward direction only
        m = np.isin(keys, k2)
        if m.any():
            codes = (k1[m] >> np.uint64(32)).astype(np.int64)
            np.add.at(acc, codes, scale // d)
    hit = acc > 0
    return common[hit], acc[hit]


def ordered_span_topk(sf_dir: str) -> pa.Table:
    """Ordered span-near ranked gate: BM25 over the integer-scaled
    forward-pair tf; the query set contains BOTH orders of one term
    pair so the in_order semantics are load-bearing under the value
    hash (the unordered sibling scores them identically)."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out_q, out_d, out_w, out_s = [], [], [], []
    for q in sorted(SPANO_QUERIES):
        t1, t2 = analyze_simple(q)[:2]
        docs_u, w12 = ordered_span_weights_from_index(idx, t1, t2)
        if docs_u.size == 0:
            continue
        docs = docs_u.astype(np.int64)
        sc = np.round(_phrase_bm25(idx, docs_u,
                                   w12 / float(SPANO_SCALE)), 6)
        cut = np.lexsort((docs, -sc))[:SPANO_K]
        out_q.extend([q] * cut.size)
        out_d.extend(docs[cut].tolist())
        out_w.extend(w12[cut].tolist())
        out_s.extend(sc[cut].tolist())
    ranks: list[int] = []
    prev = None
    for q in out_q:
        ranks.append(1 if q != prev else ranks[-1] + 1)
        prev = q
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "span_tf_x12": pa.array(out_w, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(ranks, type=pa.int64()),
    })


def ordered_span_sql(queries=SPANO_QUERIES, *, w: int = SPANO_W,
                     scale: int = SPANO_SCALE, k: int = SPANO_K,
                     k1: float = 1.2, b: float = 0.75) -> str:
    """Oracle: the sloppy oracle with the pair join restricted to the
    forward direction ``b.i - a.i BETWEEN 1 AND w``."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH arrs AS (SELECT doc_id, list_filter(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr FROM documents),",
        "pos AS (SELECT doc_id, arr, unnest(generate_series(1, len(arr)))"
        " AS i FROM arrs),",
        "dl AS (SELECT doc_id, len(arr) AS dl FROM arrs "
        "WHERE len(arr) > 0),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        t1, t2 = analyze_simple(q)[:2]
        parts.append(f""",
        pw{qi} AS (
            SELECT a.doc_id,
                   CAST(sum({scale} // (b.i - a.i)) AS BIGINT) AS w12
            FROM pos a JOIN pos b
              ON a.doc_id = b.doc_id
             AND b.i - a.i BETWEEN 1 AND {w}
            WHERE a.arr[a.i] = '{_sq(t1)}' AND b.arr[b.i] = '{_sq(t2)}'
            GROUP BY a.doc_id
        ),
        pdf{qi} AS (SELECT count(*) AS df FROM pw{qi}),
        sc{qi} AS (
            SELECT p.doc_id, p.w12,
                   ln(1 + (stats.n - pdf{qi}.df + 0.5) / (pdf{qi}.df + 0.5))
                       * (p.w12 / {scale}.0)
                       / ((p.w12 / {scale}.0)
                          + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                       AS s
            FROM pw{qi} p
            CROSS JOIN stats CROSS JOIN pdf{qi}
            JOIN dl ON p.doc_id = dl.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, w12 AS span_tf_x12,
                   round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# ------------------------------------------------------------- span not

# (include t1, include t2, exclude t3): forward (t1 .. t2) spans with
# no t3 STRICTLY BETWEEN them survive (Lucene SpanNotQuery with the
# exclusion tested against the span interior)
SPANNOT_QUERIES = (("data", "window", "processing"),
                   ("fast", "merge", "scan"),
                   ("big", "vector", "slow"),
                   ("table", "dup", "merge"))
SPANNOT_W = SPANO_W
SPANNOT_SCALE = SPANO_SCALE
SPANNOT_K = 10


def span_not_weights_from_index(idx, t1: str, t2: str, t3: str, *,
                                w: int = SPANNOT_W,
                                scale: int = SPANNOT_SCALE):
    """(doc_ids, integer-scaled surviving span tf): forward pairs
    ``1 <= p2 - p1 <= w`` of (t1, t2) weighted ``scale // gap``,
    MINUS any pair with a t3 occurrence strictly inside (p1, p2) —
    the SpanNot exclusion.  Same packed (doc_code << 32 | pos) key
    algebra as the ordered/sloppy faces: per gap d, one isin against
    t2's keys finds the pairs and d-1 isins against t3's keys test
    the interior — O(w²) vectorized passes, no per-doc Python."""
    posts = idx.postings([t1, t2, t3])
    common = _common_docs(posts, sorted({t1, t2}))
    if common.size == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    # t3 keys only matter inside candidate docs
    k1 = posts[t1].position_keys(common)
    k2 = np.sort(posts[t2].position_keys(common))
    k3 = np.sort(posts[t3].position_keys(common))
    acc = np.zeros(common.size, dtype=np.int64)
    for d in range(1, w + 1):
        m = np.isin(k1 + np.uint64(d), k2)
        if not m.any():
            continue
        base = k1[m]
        excl = np.zeros(base.size, dtype=bool)
        for e in range(1, d):            # strictly interior positions
            excl |= np.isin(base + np.uint64(e), k3)
        keep = ~excl
        if keep.any():
            codes = (base[keep] >> np.uint64(32)).astype(np.int64)
            np.add.at(acc, codes, scale // d)
    hit = acc > 0
    return common[hit], acc[hit]


def span_not_topk(sf_dir: str) -> pa.Table:
    """SpanNot ranked gate: BM25 over the surviving-span integer tf.
    Degeneracy (pytest-pinned): an exclude term absent from the corpus
    reproduces ordered_span ranking exactly; a ubiquitous exclude term
    strictly shrinks or empties the match set."""
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out_q, out_d, out_w, out_s = [], [], [], []
    for t1, t2, t3 in sorted(SPANNOT_QUERIES):
        q = f"{t1} {t2} -{t3}"
        docs_u, w12 = span_not_weights_from_index(idx, t1, t2, t3)
        if docs_u.size == 0:
            continue
        docs = docs_u.astype(np.int64)
        sc = np.round(_phrase_bm25(idx, docs_u,
                                   w12 / float(SPANNOT_SCALE)), 6)
        cut = np.lexsort((docs, -sc))[:SPANNOT_K]
        out_q.extend([q] * cut.size)
        out_d.extend(docs[cut].tolist())
        out_w.extend(w12[cut].tolist())
        out_s.extend(sc[cut].tolist())
    ranks: list[int] = []
    prev = None
    for q in out_q:
        ranks.append(1 if q != prev else ranks[-1] + 1)
        prev = q
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "span_tf_x12": pa.array(out_w, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(ranks, type=pa.int64()),
    })


def span_not_sql(queries=SPANNOT_QUERIES, *, w: int = SPANNOT_W,
                 scale: int = SPANNOT_SCALE, k: int = SPANNOT_K,
                 k1: float = 1.2, b: float = 0.75) -> str:
    """Oracle: the ordered-span oracle with one NOT EXISTS interior
    test per pair."""
    from .oracles import _sq

    parts = [
        "WITH arrs AS (SELECT doc_id, list_filter(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr FROM documents),",
        "pos AS (SELECT doc_id, arr, unnest(generate_series(1, len(arr)))"
        " AS i FROM arrs),",
        "dl AS (SELECT doc_id, len(arr) AS dl FROM arrs "
        "WHERE len(arr) > 0),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)",
    ]
    selects = []
    for qi, (t1, t2, t3) in enumerate(sorted(queries)):
        label = f"{t1} {t2} -{t3}"
        parts.append(f""",
        pw{qi} AS (
            SELECT a.doc_id,
                   CAST(sum({scale} // (b.i - a.i)) AS BIGINT) AS w12
            FROM pos a JOIN pos b
              ON a.doc_id = b.doc_id
             AND b.i - a.i BETWEEN 1 AND {w}
            WHERE a.arr[a.i] = '{_sq(t1)}' AND b.arr[b.i] = '{_sq(t2)}'
              AND NOT EXISTS (
                  SELECT 1 FROM pos c
                  WHERE c.doc_id = a.doc_id
                    AND c.arr[c.i] = '{_sq(t3)}'
                    AND c.i > a.i AND c.i < b.i)
            GROUP BY a.doc_id
        ),
        pdf{qi} AS (SELECT count(*) AS df FROM pw{qi}),
        sc{qi} AS (
            SELECT p.doc_id, p.w12,
                   ln(1 + (stats.n - pdf{qi}.df + 0.5) / (pdf{qi}.df + 0.5))
                       * (p.w12 / {scale}.0)
                       / ((p.w12 / {scale}.0)
                          + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                       AS s
            FROM pw{qi} p
            CROSS JOIN stats CROSS JOIN pdf{qi}
            JOIN dl ON p.doc_id = dl.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(label)}' AS query, doc_id, w12 AS span_tf_x12,
                   round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


PHRASE_PREFIX_QUERIES = ("fast sc", "data wind", "table s",
                         "dup ta", "window zz")
PHRASE_PREFIX_K = 10


def phrase_prefix_topk(sf_dir: str, *, queries=PHRASE_PREFIX_QUERIES,
                       k: int = PHRASE_PREFIX_K) -> pa.Table:
    """match_phrase_prefix (the query-as-you-type front door): the
    LAST token is a dictionary prefix; it expands to every matching
    term (the prefix_topk rewrite) and the phrase matches any
    expansion.  Ranked semantics documented here: per-doc tf = exact
    phrase occurrences SUMMED over expansions, df = docs with tf ≥ 1,
    the phrase_topk BM25 formula on top.

    Scale shape: one dictionary scan for all prefixes (range-pruned,
    shared with the expand gates), then per-expansion positional
    intersection over block-pruned postings — O(candidate docs) work
    per expansion, doc text never read."""
    from ..analysis.analyzer import analyze_simple
    from .expand import expand_terms, simple_index_cached
    from .query import BM25Index

    index_dir = simple_index_cached(sf_dir)
    prefixes = tuple(sorted({analyze_simple(q)[-1] for q in queries}))
    exp = expand_terms(index_dir, prefix=prefixes)
    idx = BM25Index(index_dir)
    out_q, out_d, out_t, out_s = [], [], [], []
    for q in sorted(queries):
        toks = analyze_simple(q)
        head, pre = toks[:-1], toks[-1]
        # per-doc summed phrase tf over expansions (packed uint64 keys:
        # doc_id is partition-prefixed, so accumulate on raw ids)
        acc_ids: list[np.ndarray] = []
        acc_tf: list[np.ndarray] = []
        for e in exp.get(pre, []):
            common, starts = _phrase_starts(idx, head + [e])
            if starts.size == 0:
                continue
            codes, tf = np.unique(starts >> np.uint64(32),
                                  return_counts=True)
            acc_ids.append(common[codes.astype(np.int64)]
                           .astype(np.int64))
            acc_tf.append(tf.astype(np.int64))
        if not acc_ids:
            continue
        ids = np.concatenate(acc_ids)
        tfs = np.concatenate(acc_tf)
        docs, inv = np.unique(ids, return_inverse=True)
        tf_sum = np.zeros(docs.size, dtype=np.int64)
        np.add.at(tf_sum, inv, tfs)
        sc = np.round(_phrase_bm25(idx, docs, tf_sum), 6)
        cut = np.lexsort((docs, -sc))[:k]
        out_q.extend([q] * cut.size)
        out_d.extend(docs[cut].tolist())
        out_t.extend(tf_sum[cut].tolist())
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


def phrase_prefix_sql(queries=PHRASE_PREFIX_QUERIES, *,
                      k: int = PHRASE_PREFIX_K, k1: float = 1.2,
                      b: float = 0.75) -> str:
    """Oracle: token ordinality + ``arr[i+1] LIKE 'prefix%'`` phrase
    matching, per-doc summed tf, df, corpus stats and the BM25 algebra
    from raw text."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH arrs AS (SELECT doc_id, list_filter(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr FROM documents),",
        "dl AS (SELECT doc_id, len(arr) AS dl FROM arrs"
        " WHERE len(arr) > 0),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),",
        "pos AS (SELECT doc_id, arr,"
        " unnest(generate_series(1, len(arr))) AS i FROM arrs)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        toks = analyze_simple(q)
        head, pre = toks[:-1], toks[-1]
        conds = [f"arr[i + {j}] = '{_sq(t)}'"
                 for j, t in enumerate(head)]
        conds.append(f"i + {len(head)} <= len(arr)")
        conds.append(f"arr[i + {len(head)}] LIKE '{_sq(pre)}%'")
        parts.append(f""",
        tf{qi} AS (
            SELECT doc_id, count(*) AS tf FROM pos
            WHERE {" AND ".join(conds)}
            GROUP BY doc_id
        ),
        df{qi} AS (SELECT count(*) AS df FROM tf{qi}),
        sc{qi} AS (
            SELECT tf{qi}.doc_id, tf{qi}.tf,
                   round(ln(1 + (stats.n - df{qi}.df + 0.5)
                            / (df{qi}.df + 0.5))
                         * tf{qi}.tf
                         / (tf{qi}.tf + {k1} * (1 - {b}
                            + {b} * dl.dl / stats.avgdl)), 6) AS s
            FROM tf{qi}
            CROSS JOIN stats CROSS JOIN df{qi}
            JOIN dl ON tf{qi}.doc_id = dl.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, tf AS phrase_tf,
                   s AS score,
                   row_number() OVER (
                       ORDER BY s DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")
