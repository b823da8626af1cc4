"""Advanced disjunctive scoring operators over the on-disk index:
minimum-should-match, disjunction-max, and per-term boosts.

These are the three Lucene/bleve scoring controls the boolean gates
(pipelines/boolquery.py) don't cover:

* **minimum_should_match (m-of-n OR)** — a document must match at
  least ``m`` of the ``n`` query terms (bleve:
  ``NewDisjunctionQuery(...).SetMin(m)``); survivors keep the plain
  disjunctive BM25 sum over their MATCHED terms.  ``m = 1`` degenerates
  to the OR gate, ``m = n`` to the AND gate — both are pytest-pinned
  invariants.
* **dismax (disjunction max)** — score = ``max_t s_t + tie *
  (sum_t s_t - max_t s_t)``, Lucene's DisjunctionMaxQuery with a tie
  breaker: the best single term dominates and the others only
  tie-break, the standard fix for cross-field/synonym score inflation.
  ``tie = 1`` recovers the plain sum (pytest-pinned).
* **per-term boosts** — the ``term^weight`` syntax of every query
  string parser (bleve: ``query.SetBoost``); score = ``sum_t boost_t *
  s_t``.  All-ones boosts recover the plain sum (pytest-pinned).

All three reuse the BM25Index per-term TAAT scorer (``_score([t])``
yields one term's exact contribution vector), so candidate generation
is posting-pruned exactly like the OR/AND gates; the per-query work on
top is a few aligned numpy vector ops over the candidate union.  At
scale these are per-shard mask/blend steps on the posting match
stream — no extra I/O and no shuffle beyond what the OR gate already
pays.  Scoring is exhaustive over the candidate set (every match is
scored before top-k, the bm25_and_topk precedent), so the rounded
tie-boundary grow loop is not needed.

The oracles restate each control in pure SQL over raw text — msm as
``HAVING count(DISTINCT term) >= m``, dismax as ``max(c) + tie *
(sum(c) - max(c))`` over per-(doc, term) contributions, boosts as a
``(term, boost)`` VALUES join — so the index, posting decode and the
blend algebra all sit under the driver's value hash.

Reference anchor: the reference's one query uses bleve's default OR
match (internal/doclib/search_pdfs.go:170-180); these gates are the
query-API generalizations a search user reaches for next.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tables import ranked_table, topk_rows

__all__ = [
    "bm25_msm_topk",
    "dismax_topk",
    "boosted_topk",
    "synonym_topk",
    "score_synonym_groups",
    "query_synonym_groups",
    "bm25_msm_sql",
    "dismax_sql",
    "boosted_sql",
    "synonym_sql",
    "recency_boost_topk", "recency_boost_sql",
    "MSM_QUERIES",
    "DISMAX_QUERIES",
    "BOOST_QUERIES",
    "SYNONYMS",
    "SYN_QUERIES",
]

# (query text, minimum number of distinct matched terms)
MSM_QUERIES = (("fast scan merge window", 2),
               ("table customer query data", 3),
               ("big slow vector", 2),
               ("join hash filter zzznope", 2))
MSM_K = 10

DISMAX_QUERIES = ("fast scan merge", "table window query",
                  "customer big vector", "join filter")
DISMAX_TIE = 0.3
DISMAX_K = 10

# term^boost atoms, the standard query-string boost syntax
BOOST_QUERIES = ("fast^2 scan", "table window^0.5 query",
                 "customer^3 vector slow", "hash^0 join")
BOOST_K = 10

# Fixed query-side thesaurus for the blended SynonymQuery gate.  Each
# query term expands to its class (self included); terms absent from
# the map stay singleton clauses.
SYNONYMS = {
    "fast": ("fast", "quick", "rapid"),
    "data": ("data", "information"),
    "merge": ("merge", "join", "combine"),
    "big": ("big", "large", "huge"),
}
SYN_QUERIES = ("fast data", "big merge scan",
               "data merge window", "quick table")
SYN_K = 10


def per_term_scores(idx, terms) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """term -> (sorted unique doc_ids, exact BM25 contributions) via the
    index's exhaustive single-term TAAT path.  Empty terms (df = 0)
    map to empty arrays."""
    uniq = sorted(set(terms))
    idx.postings(uniq)  # one batched read; each score_terms hits the cache
    return {t: idx.score_terms([t]) for t in uniq}


def summed_scores(idx, terms, contribution):
    """(sorted doc_ids, scores) of every doc holding at least one of
    ``terms``: each doc's score is the sum, in sorted-term order, of
    ``contribution(posting_list)`` over the terms it holds — the
    per-posting weights of a scorer that BM25Index does not own."""
    posts = idx.postings(terms)
    present = [t for t in sorted(posts) if posts[t].ids.size]
    if not present:
        return np.empty(0, dtype=np.int64), np.empty(0)
    union = np.unique(np.concatenate([posts[t].ids for t in present]))
    score = np.zeros(union.size)
    for t in present:
        score[np.searchsorted(union, posts[t].ids)] += \
            contribution(posts[t])
    return union, score


def aligned_contributions(
    per_term: dict[str, tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(candidate-union doc_ids sorted, term -> dense contribution
    vector over that union, zero where the term is absent).  A BM25
    contribution is > 0 wherever the term occurs (idf > 0 always under
    the Lucene-smoothed formula), so presence tests are ``v > 0``."""
    nonempty = [ids for ids, _ in per_term.values() if ids.size]
    if not nonempty:
        return np.empty(0, dtype=np.uint64), {}
    union = np.unique(np.concatenate(nonempty))
    dense = {}
    for t, (ids, sc) in per_term.items():
        v = np.zeros(union.size)
        if ids.size:
            v[np.searchsorted(union, ids)] = sc
        dense[t] = v
    return union, dense


# ------------------------------------------------------------------ gates

def bm25_msm_topk(sf_dir: str) -> pa.Table:
    """minimum_should_match gate: keep documents matching >= min_match
    distinct query terms; score = BM25 sum over the matched terms."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    rows: list[tuple] = []
    for q, m in sorted(MSM_QUERIES):
        union, dense = aligned_contributions(
            per_term_scores(idx, analyze_simple(q)))
        if not union.size:
            continue
        mat = np.stack(list(dense.values()))
        n_matched = (mat > 0).sum(axis=0)
        keep = n_matched >= m
        if not keep.any():
            continue
        rows.extend(topk_rows(q, union[keep], mat[:, keep].sum(axis=0),
                              MSM_K, prefix=(m,)))
    return ranked_table(rows, extra_col="min_match", extra_type=pa.int64())


def dismax_topk(sf_dir: str) -> pa.Table:
    """DisjunctionMax gate: score = max term contribution + DISMAX_TIE
    × the sum of the remaining contributions."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    rows: list[tuple] = []
    for q in sorted(DISMAX_QUERIES):
        union, dense = aligned_contributions(
            per_term_scores(idx, analyze_simple(q)))
        if not union.size:
            continue
        mat = np.stack(list(dense.values()))
        best = mat.max(axis=0)
        score = best + DISMAX_TIE * (mat.sum(axis=0) - best)
        rows.extend(topk_rows(q, union, score, DISMAX_K))
    return ranked_table(rows)


def parse_boost_query(q: str) -> dict[str, float]:
    """``term^w`` atoms → analyzed-term -> boost (duplicate analyzed
    terms sum their boosts, the Lucene repeated-clause rule).  Shared
    by the gate and its oracle so both sides blend identically."""
    from ..analysis.analyzer import analyze_simple

    boosts: dict[str, float] = {}
    for atom in q.split():
        term, _, w = atom.partition("^")
        weight = float(w) if w else 1.0
        for t in analyze_simple(term):
            boosts[t] = boosts.get(t, 0.0) + weight
    return boosts


def query_synonym_groups(q: str) -> list[tuple[str, ...]]:
    """Analyzed query tokens → unique synonym classes (sorted terms,
    sorted groups).  Shared by the gate and its oracle so both sides
    expand identically; two query tokens in the same class collapse to
    ONE clause (the Lucene SynonymQuery dedup rule)."""
    from ..analysis.analyzer import analyze_simple

    groups = {tuple(sorted(SYNONYMS.get(t, (t,))))
              for t in analyze_simple(q)}
    return sorted(groups)


def _group_postings(idx, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blend one synonym class's postings: (sorted unique doc_ids,
    summed tf, doc length) over the union of the member terms' posting
    lists."""
    posts = idx.postings(terms).values()
    ids = np.concatenate([p.ids for p in posts])
    if not ids.size:
        return (np.empty(0, dtype=np.uint64), np.empty(0), np.empty(0))
    tf = np.concatenate([p.tf for p in posts]).astype(np.float64)
    dl = np.concatenate([p.dl for p in posts]).astype(np.float64)
    uniq, inv = np.unique(ids, return_inverse=True)
    tf_sum = np.zeros(uniq.size)
    np.add.at(tf_sum, inv, tf)
    dls = np.zeros(uniq.size)
    dls[inv] = dl  # every posting of a doc agrees on its length
    return uniq, tf_sum, dls


def score_synonym_groups(idx, groups) -> tuple[np.ndarray, np.ndarray]:
    """Blended SynonymQuery scoring (Lucene ``SynonymQuery`` semantics,
    the scoring-correct form of synonym expansion): each synonym class
    scores as ONE pseudo-term — tf = Σ member tf within the doc, df =
    |union of member posting lists| — so a rare synonym cannot inflate
    idf the way a plain OR rewrite does (the failure dismax only
    mitigates).  Doc score = Σ over classes of
    ``idf(df_class) × tf_class / (tf_class + k1·(1-b+b·dl/avgdl))``.
    Returns (sorted candidate doc_ids, scores), tombstones excluded.

    Scale shape: per class this is the same posting-stream merge the
    OR scorer already does, with the aggregate keyed on (class, doc)
    instead of (term, doc) — no extra I/O, no shuffle; df_class is an
    exact by-product of the merge."""
    from ..index.codec import aggregate_scores, bm25_idf, bm25_wdl

    m = idx.manifest
    idx.postings({t for g in groups for t in g})  # one batched read
    id_parts, sc_parts = [], []
    for g in groups:
        uniq, tf, dl = _group_postings(idx, g)
        if not uniq.size:
            continue
        idf = float(bm25_idf(m.n_docs, uniq.size))
        id_parts.append(uniq)
        sc_parts.append(idf * bm25_wdl(tf, dl, m.k1, m.b, m.avgdl))
    if not id_parts:
        return np.empty(0, dtype=np.uint64), np.empty(0)
    ids, sc = aggregate_scores(np.concatenate(id_parts),
                               np.concatenate(sc_parts))
    keep = idx.live_mask(ids)
    return ids[keep], sc[keep]


def synonym_topk(sf_dir: str) -> pa.Table:
    """Driver gate: blended SynonymQuery top-k over the fixed
    ``SYNONYMS`` thesaurus (see score_synonym_groups)."""
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    rows: list[tuple] = []
    for q in sorted(SYN_QUERIES):
        ids, sc = score_synonym_groups(idx, query_synonym_groups(q))
        if not ids.size:
            continue
        rows.extend(topk_rows(q, ids, sc, SYN_K))
    return ranked_table(rows)


def boosted_topk(sf_dir: str) -> pa.Table:
    """Per-term boost gate: score = Σ boost_t × BM25_t.  A zero boost
    keeps the term as a pure match signal with no score weight (docs
    matching only that term score 0 but still rank by doc_id)."""
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    rows: list[tuple] = []
    for q in sorted(BOOST_QUERIES):
        boosts = parse_boost_query(q)
        union, dense = aligned_contributions(
            per_term_scores(idx, boosts.keys()))
        if not union.size:
            continue
        score = np.zeros(union.size)
        for t, v in dense.items():
            score += boosts[t] * v
        rows.extend(topk_rows(q, union, score, BOOST_K))
    return ranked_table(rows)


# ---------------------------------------------------------------- oracles

_CHAIN = (
    "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
    "lower(text), '[^a-z0-9]+')) AS term FROM documents),"
    "tok AS (SELECT * FROM toks WHERE term <> ''),"
    "dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),"
    "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)"
)


def _contrib_ctes(qi: int, terms: list[str], *, k1: float, b: float,
                  boosts: dict[str, float] | None = None) -> str:
    """The shared per-(doc, term) BM25 contribution CTE chain for query
    ``qi`` — tfs/dfs plus a ``c{qi}`` contribution relation (optionally
    boost-weighted via a 2-column VALUES join)."""
    from .oracles import _sq

    if boosts is None:
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        qcte = f"q{qi}(term) AS (VALUES {qvals})"
        weight = ""
    else:
        qvals = ", ".join(
            f"('{_sq(t)}', {boosts[t]!r})" for t in terms) or "('', 0.0)"
        qcte = f"q{qi}(term, boost) AS (VALUES {qvals})"
        weight = f"q{qi}.boost * "
    return f""",
    {qcte},
    tfs{qi} AS (
        SELECT t.doc_id, t.term, count(*) AS tf
        FROM tok t JOIN q{qi} USING (term) GROUP BY t.doc_id, t.term
    ),
    dfs{qi} AS (SELECT term, count(*) AS df FROM tfs{qi} GROUP BY term),
    c{qi} AS (
        SELECT tfs{qi}.doc_id, tfs{qi}.term,
               {weight}ln(1 + (stats.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                   * tfs{qi}.tf / (tfs{qi}.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
               AS c
        FROM tfs{qi}
        CROSS JOIN stats
        JOIN q{qi} ON tfs{qi}.term = q{qi}.term
        JOIN dfs{qi} ON tfs{qi}.term = dfs{qi}.term
        JOIN dl ON tfs{qi}.doc_id = dl.doc_id
    )"""


def bm25_msm_sql(queries=MSM_QUERIES, *, k: int = MSM_K,
                 k1: float = 1.2, b: float = 0.75) -> str:
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts, selects = [_CHAIN], []
    for qi, (q, m) in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        parts.append(_contrib_ctes(qi, terms, k1=k1, b=b))
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, CAST({m} AS BIGINT) AS min_match,
                   doc_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM (
                SELECT doc_id, sum(c) AS s FROM c{qi}
                GROUP BY doc_id HAVING count(DISTINCT term) >= {m}
            )
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


def dismax_sql(queries=DISMAX_QUERIES, *, k: int = DISMAX_K,
               tie: float = DISMAX_TIE, k1: float = 1.2,
               b: float = 0.75) -> str:
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts, selects = [_CHAIN], []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        parts.append(_contrib_ctes(qi, terms, k1=k1, b=b))
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM (
                SELECT doc_id, max(c) + {tie} * (sum(c) - max(c)) AS s
                FROM c{qi} GROUP BY doc_id
            )
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


def synonym_sql(queries=SYN_QUERIES, *, k: int = SYN_K,
                k1: float = 1.2, b: float = 0.75) -> str:
    """Replays the blended semantics exactly: per synonym class, tf is
    counted over ``term IN (class)`` and df is the class's DISTINCT
    matching-doc count, so the class-level idf and the per-class wdl
    are both under the value hash."""
    from .oracles import _sq

    parts, selects = [_CHAIN], []
    for qi, q in enumerate(sorted(queries)):
        unions = []
        for gi, g in enumerate(query_synonym_groups(q)):
            in_list = ", ".join(f"'{_sq(t)}'" for t in g)
            parts.append(f""",
    gtf{qi}_{gi} AS (
        SELECT doc_id, count(*) AS tf FROM tok
        WHERE term IN ({in_list}) GROUP BY doc_id
    ),
    gc{qi}_{gi} AS (
        SELECT t.doc_id,
               ln(1 + (stats.n - d.df + 0.5) / (d.df + 0.5))
                   * t.tf / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
               AS c
        FROM gtf{qi}_{gi} t
        CROSS JOIN stats
        CROSS JOIN (SELECT count(*) AS df FROM gtf{qi}_{gi}) d
        JOIN dl ON t.doc_id = dl.doc_id
    )""")
            unions.append(f"SELECT * FROM gc{qi}_{gi}")
        all_c = " UNION ALL ".join(unions)
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM (SELECT doc_id, sum(c) AS s FROM ({all_c}) GROUP BY doc_id)
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


def boosted_sql(queries=BOOST_QUERIES, *, k: int = BOOST_K,
                k1: float = 1.2, b: float = 0.75) -> str:
    from .oracles import _sq

    parts, selects = [_CHAIN], []
    for qi, q in enumerate(sorted(queries)):
        boosts = parse_boost_query(q)
        parts.append(_contrib_ctes(qi, sorted(boosts), k1=k1, b=b,
                                   boosts=boosts))
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM (SELECT doc_id, sum(c) AS s FROM c{qi} GROUP BY doc_id)
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# ------------------------------------------------- function_score (recency)

RECENCY_QUERIES = ("data processing pipeline", "fast scan merge",
                   "customer information")
RECENCY_K = 10
RECENCY_HALF = 100      # weight = HALF / (HALF + age_days)
RECENCY_MOD = 365       # synthesized crawl age in days


def recency_boost_topk(sf_dir: str) -> pa.Table:
    """ES ``function_score`` decay boost (the freshness ranking every
    news/web vertical applies on top of BM25): boosted = bm25 ×
    HALF/(HALF + age_days), reciprocal age decay.  The corpus has no
    timestamp column, so crawl age synthesizes deterministically as
    ``mix64(doc_id) % RECENCY_MOD`` — the snapshot_diff/link-graph
    synthesis discipline: the oracle re-derives the synth chain
    bit-for-bit, so it is data, not fixture.

    The boost multiplies the UNROUNDED BM25 sum and rounds once at
    6 dp: multiplying two already-rounded grid values lands on exact
    half-boundaries at the 7th digit where numpy (half-even) and
    DuckDB (half-away) disagree — the MMR lesson (diversify.py).

    Scale shape: identical to boosted_topk — the decay weight is a
    per-candidate vector op on the posting match stream; age would be
    a docs-table column at scale (here an O(1) hash of the id)."""
    import numpy as np

    from ..analysis.analyzer import analyze_simple
    from ..functions.hashing import mix64
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out_q, out_d, out_a, out_s = [], [], [], []
    for q in sorted(RECENCY_QUERIES):
        ids, sc = idx.score_terms(sorted(set(analyze_simple(q))))
        if not ids.size:
            continue
        age = (mix64(ids.astype(np.uint64))
               % np.uint64(RECENCY_MOD)).astype(np.float64)
        w = float(RECENCY_HALF) / (float(RECENCY_HALF) + age)
        boosted = np.round(sc * w, 6)
        ids64 = ids.astype(np.int64)
        order = np.lexsort((ids64, -boosted))[:RECENCY_K]
        out_q.extend([q] * order.size)
        out_d.extend(ids64[order].tolist())
        out_a.extend(age[order].astype(np.int64).tolist())
        out_s.extend(boosted[order].tolist())
    ranks: list[int] = []
    prev = None
    for q in out_q:
        ranks.append(1 if q != prev else ranks[-1] + 1)
        prev = q
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "age_days": pa.array(out_a, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(ranks, type=pa.int64()),
    })


def recency_boost_sql(queries=RECENCY_QUERIES, *, k: int = RECENCY_K,
                      half: int = RECENCY_HALF, mod: int = RECENCY_MOD,
                      k1: float = 1.2, b: float = 0.75) -> str:
    """Oracle: the BM25 chain (unrounded s), the splitmix64 age synth
    replayed in HUGEINT limb arithmetic, and the decay blend
    ``round(s · half/(half+age), 6)`` — selection, synth and algebra
    all under the value hash."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    U32, U64 = 1 << 32, 1 << 64
    C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(x: str, c: int) -> str:
        ch, cl = c >> 32, c % U32
        return (f"((({x} % {U32}) * {cl} + "
                f"((({x} % {U32}) * {ch} + ({x} >> 32) * {cl}) % {U32})"
                f" * {U32}) % {U64})")

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
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, sc{qi}.doc_id,
                   ages.age AS age_days,
                   round(sc{qi}.s * (CAST({half} AS DOUBLE)
                         / (CAST({half} AS DOUBLE) + ages.age)), 6)
                       AS score,
                   row_number() OVER (
                       ORDER BY round(sc{qi}.s * (CAST({half} AS DOUBLE)
                                / (CAST({half} AS DOUBLE) + ages.age)), 6)
                                DESC, sc{qi}.doc_id ASC) AS rank
            FROM sc{qi} JOIN ages ON sc{qi}.doc_id = ages.doc_id
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")
