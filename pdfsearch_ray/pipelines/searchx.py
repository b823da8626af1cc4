"""Search-engine result-shaping features over the on-disk index:
facets, more-like-this, and cursor (search-after) pagination.

The reference serves raw ranked hit lists (internal/doclib/
search_pdfs.go); every production deployment of such an engine
immediately layers these three features on top, and bleve itself —
the reference's index library — ships facets and pagination as
first-class search-request fields.  All three are QUERY-side
features: they reuse the one fingerprint-cached simple-analyzer
index build (expand.simple_index_cached), so their marginal cost is
posting reads.

* **Faceted counts** (`facet_counts`) — for each query, group the
  FULL OR-of-terms match set by a document metadata field (``lang``,
  which the docs catalog already carries) and report per-bucket doc
  counts + best score.  Scale shape: facet counting is a per-shard
  partial ``(query, facet) -> (count, max_score)`` combine over the
  posting match stream joined against the catalog's facet column —
  a tiny groupby, never a doc shuffle.  At gate scale the catalog's
  two facet columns are one pruned read and the join is a
  ``searchsorted``.

* **More-like-this** (`mlt_topk`) — classic MLT rewrite: take a seed
  document, rank its terms by ``tf * idf`` (6-dp rounded, term-asc
  tie), keep the top ``MLT_F``, score that disjunction with standard
  BM25 and return the top ``MLT_K`` neighbours (seed excluded).  At
  scale the selection consults the term dictionary's ``(term, df)``
  metadata (the expand_terms one-pass scan shape) instead of loading
  the seed's full posting set; the second pass is a plain OR query.

* **Search-after pagination** (`search_after`) — deterministic cursor
  paging: page 2 is computed from the page-1 cursor ``(score,
  doc_id)`` with the strict-successor predicate ``score < s  OR
  (score = s AND doc_id > d)`` over the total order (6-dp rounded
  score desc, doc_id asc) — NOT by re-ranking and slicing — so the
  oracle's rank-window equality proves the cursor algebra.  At scale
  the cursor score is a block-max skip bound (blocks whose max BM25
  cannot reach the cursor are never decoded).

The DuckDB oracles recompute tokenization, BM25, df, the MLT term
selection and the rank windows end-to-end from raw text, so posting
decode and the feature algebra are all under the driver's value hash.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pyarrow as pa

from ..functions.tables import ranked_table

__all__ = [
    "facet_counts", "mlt_topk", "search_after",
    "filtered_topk", "field_sorted_topk",
    "facet_counts_sql", "mlt_topk_sql", "search_after_sql",
    "filtered_topk_sql", "field_sorted_topk_sql",
    "spell_suggest", "spell_suggest_sql", "related_terms",
    "related_terms_sql",
    "collapse_topk", "collapse_topk_sql",
    "range_facets", "range_facets_sql",
    "term_vectors", "term_vectors_sql", "TV_MOD", "TV_RESIDUE",
    "phrase_suggest", "phrase_suggest_sql", "PS_QUERIES", "PS_M",
    "FACET_QUERIES", "MLT_SEEDS", "MLT_F", "MLT_K", "SA_QUERIES", "SA_K",
    "FILTER_QUERIES", "FILTER_K", "SORT_QUERIES", "SORT_K",
    "SPELL_INPUTS", "PMI_TARGETS", "PMI_MIN_CO", "PMI_M",
    "COLLAPSE_QUERIES", "COLLAPSE_K", "RANGE_QUERIES", "RANGE_BANDS",
]

FACET_QUERIES = ("data processing pipeline", "window merge",
                 "information", "customer query")
MLT_SEEDS = (11, 42, 137, 256, 403)
MLT_F = 8
MLT_K = 10
SA_QUERIES = ("data processing pipeline", "fast scan merge",
              "information", "big slow vector")
SA_K = 10
FILTER_QUERIES = (("data processing pipeline", "en"),
                  ("window merge", "fr"), ("information", "zh"))
FILTER_K = 10
SORT_QUERIES = ("fast scan merge", "customer query")
SORT_K = 10
COLLAPSE_QUERIES = ("data processing pipeline", "fast scan merge",
                    "customer window query")
COLLAPSE_K = 10
RANGE_QUERIES = ("data processing pipeline", "window merge",
                 "customer query")
# half-open [lo, hi) n_chars bands; None = unbounded (bleve
# NumericRangeFacet convention)
RANGE_BANDS = ((0, 200), (200, 350), (350, 500), (500, None))

_BM25_CHAIN = [
    "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
    "lower(text), '[^a-z0-9]+')) AS term FROM documents),",
    "tok AS (SELECT * FROM toks WHERE term <> ''),",
    "dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),",
    "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)",
]


def _score_cte(name: str, qsrc: str, *, k1: float, b: float) -> str:
    """The suite's standard per-query BM25 CTE triple, parameterized on
    the term-source CTE (VALUES list or a computed selection)."""
    return f"""
    tfs{name} AS (
        SELECT t.doc_id, t.term, count(*) AS tf
        FROM tok t JOIN {qsrc} USING (term) GROUP BY t.doc_id, t.term
    ),
    dfs{name} AS (SELECT term, count(*) AS df FROM tfs{name} GROUP BY term),
    sc{name} AS (
        SELECT tfs{name}.doc_id,
               sum(ln(1 + (stats.n - dfs{name}.df + 0.5) / (dfs{name}.df + 0.5))
                   * tfs{name}.tf / (tfs{name}.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
               ) AS s
        FROM tfs{name}
        CROSS JOIN stats
        JOIN dfs{name} ON tfs{name}.term = dfs{name}.term
        JOIN dl ON tfs{name}.doc_id = dl.doc_id
        GROUP BY tfs{name}.doc_id
    )"""


def _ranked(ids: np.ndarray, sc: np.ndarray):
    """(ids, 6-dp scores) sorted by the suite total order."""
    sc6 = np.round(sc, 6)
    order = np.lexsort((ids.astype(np.int64), -sc6))
    return ids[order], sc6[order]


def _doc_field(path: str, col: str, *, id_col: str = "doc_id"):
    """(sorted doc_ids, aligned field values) from a column-pruned read
    of a docs parquet dir/file — the lookup side of every field join
    here (facets, filters, field sort).  At scale this column pair is a
    broadcast per facet shard, not a driver table."""
    import glob

    import pyarrow.dataset as pds

    if os.path.isdir(path) and not glob.glob(
            os.path.join(path, "**", "*.parquet"), recursive=True):
        # empty index: the docs dir has no fragments, so the dataset
        # has no schema to project from
        return np.array([], dtype=np.int64), np.array([], dtype=object)
    cat = pds.dataset(path).to_table(columns=[id_col, col])
    ids = cat[id_col].to_numpy()
    order = np.argsort(ids)
    vals = cat[col].to_numpy(zero_copy_only=False)[order]
    return ids[order], vals


# ------------------------------------------------------------------ facets

def facet_counts(sf_dir: str) -> pa.Table:
    """Per (query, lang): match count + best score over the full OR
    candidate set."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    d = simple_index_cached(sf_dir)
    idx = BM25Index(d)
    cat_ids, cat_langs = _doc_field(os.path.join(d, "docs"), "lang")

    out_q, out_l, out_n, out_b = [], [], [], []
    for q in sorted(FACET_QUERIES):
        ids, sc = idx.score_terms(sorted(set(analyze_simple(q))))
        if ids.size == 0:
            continue
        sc6 = np.round(sc, 6)
        langs = cat_langs[np.searchsorted(cat_ids, ids.astype(np.int64))]
        uniq, inv = np.unique(langs, return_inverse=True)
        n = np.bincount(inv, minlength=uniq.size)
        best = np.full(uniq.size, -np.inf)
        np.maximum.at(best, inv, sc6)
        out_q.extend([q] * uniq.size)
        out_l.extend(uniq.tolist())
        out_n.extend(n.tolist())
        out_b.extend(best.tolist())
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "lang": pa.array(out_l, type=pa.string()),
        "n_docs": pa.array(out_n, type=pa.int64()),
        "best_score": pa.array(out_b, type=pa.float64()),
    })


def facet_counts_sql(queries=FACET_QUERIES, *, k1: float = 1.2,
                     b: float = 0.75) -> str:
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = list(_BM25_CHAIN)
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),{_score_cte(str(qi), f"q{qi}", k1=k1, b=b)}""")
        selects.append(f"""
        SELECT '{_sq(q)}' AS query, d.lang AS lang,
               count(*) AS n_docs, max(round(s, 6)) AS best_score
        FROM sc{qi} JOIN documents d USING (doc_id)
        GROUP BY d.lang""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, lang")


# ----------------------------------------------------------- more-like-this

def mlt_topk(sf_dir: str) -> pa.Table:
    """Top-``MLT_K`` BM25 neighbours of each seed doc via its top-
    ``MLT_F`` tf-idf terms (seed excluded from the results)."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out_seed, out_d, out_s, out_r = [], [], [], []
    for seed in sorted(MLT_SEEDS):
        tbl, has_text = idx.fetch_doc_meta([seed], with_text=True)
        assert has_text
        text = tbl["text"][0].as_py() if tbl.num_rows else ""
        tf = Counter(analyze_simple(text))
        doc_terms = sorted(tf)
        if not doc_terms:
            continue
        # at scale: a (term, df) dictionary scan, not posting loads
        posts = idx.postings(doc_terms)
        score = {t: round(tf[t] * posts[t].idf, 6) for t in doc_terms}
        sel = sorted(score, key=lambda t: (-score[t], t))[:MLT_F]
        ids, sc = idx.score_terms(sorted(sel))
        keep = ids.astype(np.int64) != seed
        r_ids, r_sc = _ranked(ids[keep], sc[keep])
        k = min(MLT_K, r_ids.size)
        out_seed.extend([seed] * k)
        out_d.extend(r_ids[:k].astype(np.int64).tolist())
        out_s.extend(r_sc[:k].tolist())
        out_r.extend(range(1, k + 1))
    return pa.table({
        "seed_doc": pa.array(out_seed, type=pa.int64()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(out_r, type=pa.int64()),
    })


def mlt_topk_sql(seeds=MLT_SEEDS, *, f: int = MLT_F, k: int = MLT_K,
                 k1: float = 1.2, b: float = 0.75) -> str:
    """Replays the whole MLT rewrite: per-seed term tf → corpus df →
    6-dp-rounded tf-idf top-``f`` selection (term-asc tie) → BM25 over
    the selection → top-``k`` with the seed excluded."""
    parts = list(_BM25_CHAIN)
    parts.append(""",
    alldf AS (SELECT term, count(DISTINCT doc_id) AS df
              FROM tok GROUP BY term)""")
    selects = []
    for qi, seed in enumerate(sorted(seeds)):
        parts.append(f""",
        tfq{qi} AS (SELECT term, count(*) AS tf FROM tok
                    WHERE doc_id = {seed} GROUP BY term),
        sel{qi} AS (
            SELECT term FROM (
                SELECT t.term, row_number() OVER (ORDER BY
                    round(t.tf * ln(1 + (stats.n - a.df + 0.5) / (a.df + 0.5)), 6) DESC,
                    t.term ASC) AS rn
                FROM tfq{qi} t JOIN alldf a USING (term) CROSS JOIN stats
            ) WHERE rn <= {f}
        ),{_score_cte(f"m{qi}", f"sel{qi}", k1=k1, b=b)}""")
        selects.append(f"""
        SELECT * FROM (
            SELECT CAST({seed} AS BIGINT) AS seed_doc, doc_id,
                   round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM scm{qi} WHERE doc_id <> {seed}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY seed_doc, rank")


# ------------------------------------------------------------ search-after

def search_after(sf_dir: str) -> pa.Table:
    """Pages 1 and 2 of each query's ranking; page 2 via the cursor
    strict-successor predicate, not a rank slice."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out_q, out_p, out_r, out_d, out_s = [], [], [], [], []

    def emit(q, page, rank0, ids, sc):
        out_q.extend([q] * ids.size)
        out_p.extend([page] * ids.size)
        out_r.extend(range(rank0, rank0 + ids.size))
        out_d.extend(ids.astype(np.int64).tolist())
        out_s.extend(sc.tolist())

    for q in sorted(SA_QUERIES):
        ids, sc = idx.score_terms(sorted(set(analyze_simple(q))))
        if ids.size == 0:
            continue
        sc6 = np.round(sc, 6)
        r_ids, r_sc = _ranked(ids, sc)
        emit(q, 1, 1, r_ids[:SA_K], r_sc[:SA_K])
        if r_ids.size > SA_K:
            cs = r_sc[SA_K - 1]
            cd = int(r_ids[SA_K - 1])
            # the cursor predicate over the UNRANKED match set — at
            # scale, cs doubles as a block-max skip bound
            after = (sc6 < cs) | ((sc6 == cs) & (ids.astype(np.int64) > cd))
            p_ids, p_sc = _ranked(ids[after], sc[after])
            emit(q, 2, SA_K + 1, p_ids[:SA_K], p_sc[:SA_K])
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "page": pa.array(out_p, type=pa.int64()),
        "rank": pa.array(out_r, type=pa.int64()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
    })


def search_after_sql(queries=SA_QUERIES, *, k: int = SA_K,
                     k1: float = 1.2, b: float = 0.75) -> str:
    """Rank-window oracle: rows 1..2k of the full ranking with the page
    derived from the rank — equality with the engine proves the
    cursor predicate selects exactly ranks k+1..2k."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = list(_BM25_CHAIN)
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),{_score_cte(str(qi), f"q{qi}", k1=k1, b=b)}""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query,
                   CASE WHEN rn <= {k} THEN 1 ELSE 2 END AS page,
                   rn AS rank, doc_id, score
            FROM (
                SELECT doc_id, round(s, 6) AS score, row_number() OVER (
                    ORDER BY round(s, 6) DESC, doc_id ASC) AS rn
                FROM sc{qi}
            )
        ) WHERE rank <= {2 * k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# -------------------------------------------------------- filtered search

def filtered_topk(sf_dir: str) -> pa.Table:
    """BM25 top-k restricted by a metadata term filter (bleve's
    conjunction of a match query with a field term query): per
    (query, lang) pair, rank only matching docs whose catalog ``lang``
    equals the filter.  The filter applies to the CANDIDATE set —
    scores stay the plain OR BM25, so filtering never re-weights.  At
    scale the filter mask joins the posting stream against the facet
    column broadcast; here it is one searchsorted over the catalog."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    d = simple_index_cached(sf_dir)
    idx = BM25Index(d)
    cat_ids, cat_langs = _doc_field(os.path.join(d, "docs"), "lang")
    out_q, out_f, out_d, out_s, out_r = [], [], [], [], []
    for q, flt in sorted(FILTER_QUERIES):
        ids, sc = idx.score_terms(sorted(set(analyze_simple(q))))
        if ids.size == 0:
            continue
        langs = cat_langs[np.searchsorted(cat_ids, ids.astype(np.int64))]
        keep = langs == flt
        r_ids, r_sc = _ranked(ids[keep], sc[keep])
        k = min(FILTER_K, r_ids.size)
        out_q.extend([q] * k)
        out_f.extend([flt] * k)
        out_d.extend(r_ids[:k].astype(np.int64).tolist())
        out_s.extend(r_sc[:k].tolist())
        out_r.extend(range(1, k + 1))
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "lang": pa.array(out_f, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(out_r, type=pa.int64()),
    })


def filtered_topk_sql(queries=FILTER_QUERIES, *, k: int = FILTER_K,
                      k1: float = 1.2, b: float = 0.75) -> str:
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = list(_BM25_CHAIN)
    selects = []
    for qi, (q, flt) in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),{_score_cte(str(qi), f"q{qi}", k1=k1, b=b)}""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, '{_sq(flt)}' AS lang, doc_id,
                   round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi} JOIN documents d USING (doc_id)
            WHERE d.lang = '{_sq(flt)}'
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# ------------------------------------------------------------- field sort

def field_sorted_topk(sf_dir: str) -> pa.Table:
    """Match-then-sort-by-stored-field (bleve SearchRequest.SortBy):
    the OR match set ordered by a document attribute that lives in the
    SOURCE store, not the index — ``n_chars`` desc, doc_id asc — with
    the BM25 score carried along as an output column only.  The sort
    key join is a pruned (doc_id, n_chars) read of the source parquet;
    at scale a per-shard top-k over the match stream precedes one tiny
    k*shards merge (no global sort)."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    cat_ids, cat_nc = _doc_field(
        os.path.join(sf_dir, "documents.parquet"), "n_chars")
    out_q, out_d, out_n, out_s, out_r = [], [], [], [], []
    for q in sorted(SORT_QUERIES):
        ids, sc = idx.score_terms(sorted(set(analyze_simple(q))))
        if ids.size == 0:
            continue
        sc6 = np.round(sc, 6)
        nc = cat_nc[np.searchsorted(cat_ids, ids.astype(np.int64))]
        order = np.lexsort((ids.astype(np.int64), -nc.astype(np.int64)))
        k = min(SORT_K, order.size)
        sel = order[:k]
        out_q.extend([q] * k)
        out_d.extend(ids[sel].astype(np.int64).tolist())
        out_n.extend(nc[sel].astype(np.int64).tolist())
        out_s.extend(sc6[sel].tolist())
        out_r.extend(range(1, k + 1))
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "n_chars": pa.array(out_n, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(out_r, type=pa.int64()),
    })


def field_sorted_topk_sql(queries=SORT_QUERIES, *, k: int = SORT_K,
                          k1: float = 1.2, b: float = 0.75) -> str:
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = list(_BM25_CHAIN)
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),{_score_cte(str(qi), f"q{qi}", k1=k1, b=b)}""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, d.n_chars AS n_chars,
                   round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY d.n_chars DESC, doc_id ASC) AS rank
            FROM sc{qi} JOIN documents d USING (doc_id)
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# --------------------------------------------------------- spell suggest

SPELL_INPUTS = ("tble", "scann", "mergee", "fast", "winow", "zzzq")


def spell_suggest(sf_dir: str) -> pa.Table:
    """Did-you-mean: for each input word, the best dictionary term
    within Levenshtein distance 1, ranked distance asc (an exact hit
    beats any neighbour), then df desc, then term asc.  One distributed
    scan of the postings dictionary (term, n) — candidates are masked
    per batch with the vectorized distance kernel (expand.fuzzy1_mask)
    and the driver receives only matched terms' df partials, never the
    vocabulary.  Inputs with no candidate emit no row."""
    from ..functions.tables import read_parquet_nometa
    from .expand import fuzzy1_mask, simple_index_cached

    d = simple_index_cached(sf_dir)
    pdir = os.path.join(d, "postings")
    files = sorted(os.path.join(pdir, f) for f in os.listdir(pdir)
                   if f.endswith(".parquet"))
    inputs = sorted(SPELL_INPUTS)

    def match(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # mask the batch VOCABULARY first (pc.unique is the cheap C++
        # path); df partials are then summed over only the matched
        # terms' rows — the full (term, n) column is never factorized
        u = pc.unique(t["term"])
        arr = u.to_numpy(zero_copy_only=False).astype(str)
        masks = [(qi, fuzzy1_mask(arr, w)) for qi, w in enumerate(inputs)]
        matched = set()
        for _, m in masks:
            if m.any():
                matched.update(arr[m].tolist())
        out_qi: list[int] = []
        out_t: list[str] = []
        out_df: list[int] = []
        if matched:
            sub = t.filter(pc.is_in(t["term"],
                                    value_set=pa.array(sorted(matched))))
            g = pa.TableGroupBy(sub, "term").aggregate([("n", "sum")])
            sums = dict(zip(g["term"].to_pylist(), g["n_sum"].to_pylist()))
            for qi, m in masks:
                for term in arr[m].tolist():
                    out_qi.append(qi)
                    out_t.append(term)
                    out_df.append(int(sums[term]))
        return pa.table({
            "qi": pa.array(out_qi, type=pa.int64()),
            "term": pa.array(out_t, type=pa.string()),
            "df_part": pa.array(out_df, type=pa.int64()),
        })

    cand = read_parquet_nometa(
        files, columns=["term", "n"],
    ).map_batches(match, batch_format="pyarrow").to_pandas() \
        if files else None          # empty index: no dictionary at all
    out_w, out_s, out_d = [], [], []
    if cand is not None and len(cand):
        agg = cand.groupby(["qi", "term"], as_index=False)["df_part"].sum()
        for qi, w in enumerate(inputs):
            g = agg[agg["qi"] == qi]
            if g.empty:
                continue
            g = g.assign(dist=(g["term"] != w).astype(int))
            g = g.sort_values(["dist", "df_part", "term"],
                              ascending=[True, False, True],
                              kind="mergesort")
            r = g.iloc[0]
            out_w.append(w)
            out_s.append(r["term"])
            out_d.append(int(r["df_part"]))
    return pa.table({
        "input": pa.array(out_w, type=pa.string()),
        "suggestion": pa.array(out_s, type=pa.string()),
        "df": pa.array(out_d, type=pa.int64()),
    })


def spell_suggest_sql(inputs=SPELL_INPUTS) -> str:
    """Oracle recomputes the dictionary + df from raw text and applies
    DuckDB's own ``levenshtein`` — the engine's banded prefix/suffix
    distance kernel is checked against the real metric."""
    from .oracles import _sq

    parts = list(_BM25_CHAIN)
    parts.append(""",
    pres AS (SELECT DISTINCT doc_id, term FROM tok),
    dfs AS (SELECT term, count(*) AS df FROM pres GROUP BY term)""")
    selects = []
    for w in sorted(inputs):
        selects.append(f"""
        SELECT input, suggestion, df FROM (
            SELECT '{_sq(w)}' AS input, term AS suggestion, df,
                   row_number() OVER (ORDER BY
                       levenshtein(term, '{_sq(w)}') ASC,
                       df DESC, term ASC) AS rn
            FROM dfs WHERE levenshtein(term, '{_sq(w)}') <= 1
        ) WHERE rn = 1""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY input")


# ---------------------------------------------------------- related terms

PMI_TARGETS = ("data", "merge", "customer")
PMI_MIN_CO = 5
PMI_M = 15


def related_terms(sf_dir: str) -> pa.Table:
    """Related searches: top-``PMI_M`` terms by document-level pointwise
    mutual information with each target term — ``pmi = ln(co·N /
    (df_t·df_y))`` over co-document counts, co >= ``PMI_MIN_CO``.

    Shape: the target doc-id sets come from the index postings (O(df)
    reads); ONE map_batches pass over the docs table emits per-batch
    (term, co_target...) partials ONLY for docs inside the targets'
    union (searchsorted mask — non-member rows cost one binary search),
    combined by a single-key groupby; global df comes from the index
    dictionary (expand.dictionary_stats).  The driver holds the
    co-candidate table — O(terms co-occurring with the targets), not
    the vocabulary.  At 10^12 docs the union membership ships via
    ray.put."""
    from .expand import dictionary_stats, simple_index_cached
    from .queries import _docs
    from .query import BM25Index

    d = simple_index_cached(sf_dir)
    idx = BM25Index(d)
    targets = sorted(PMI_TARGETS)
    tgt_ids = {}
    for t in targets:
        ids, _ = idx.score_terms([t])
        tgt_ids[t] = np.sort(ids.astype(np.int64))
    n_total = int(idx.manifest.n_docs)
    union = tgt_ids[targets[0]]
    for t in targets[1:]:
        union = np.union1d(union, tgt_ids[t])
    k = len(targets)
    co_cols = [f"co_{i}" for i in range(k)]

    def co_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        from ..analysis.analyzer import analyze_simple

        ids_np = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(union, ids_np)
        pos[pos >= union.size] = union.size - 1 if union.size else 0
        member = union.size > 0
        in_union = (union[pos] == ids_np) if member else np.zeros(len(ids_np), bool)
        if not in_union.any():
            return pa.table({"term": pa.array([], type=pa.string()),
                             **{c: pa.array([], type=pa.int64())
                                for c in co_cols}})
        texts = batch["text"].to_pylist()
        doc_rows, raw = [], []
        for i in np.nonzero(in_union)[0]:
            toks = analyze_simple(texts[i] or "")
            raw.extend(toks)
            doc_rows.extend([i] * len(toks))
        if not raw:
            return pa.table({"term": pa.array([], type=pa.string()),
                             **{c: pa.array([], type=pa.int64())
                                for c in co_cols}})
        codes, uniq = pd.factorize(np.asarray(raw, dtype=object), sort=False)
        v = len(uniq)
        pairs = np.unique(np.asarray(doc_rows, dtype=np.int64) * v + codes)
        p_doc = ids_np[pairs // v]
        p_code = pairs % v
        cols = {}
        for ti, t in enumerate(targets):
            hit = np.isin(p_doc, tgt_ids[t], assume_unique=False)
            cols[co_cols[ti]] = np.bincount(
                p_code[hit], minlength=v).astype(np.int64)
        keep = np.zeros(v, dtype=bool)
        for c in co_cols:
            keep |= cols[c] > 0
        return pa.table({
            "term": pa.array(np.asarray(uniq, dtype=object)[keep].tolist(),
                             type=pa.string()),
            **{c: pa.array(cols[c][keep], type=pa.int64()) for c in co_cols},
        })

    from ray.data.aggregate import Sum

    agg = (_docs(sf_dir)
           .map_batches(co_partial, batch_format="pyarrow", batch_size=512)
           .groupby("term")
           .aggregate(*[Sum(c, alias_name=c) for c in co_cols])
           .to_pandas())
    from ..functions.tables import typed_pandas
    agg = typed_pandas(agg, {"term": "object",
                             **{c: "int64" for c in co_cols}})
    stats = dictionary_stats(d).select(["term", "df"]).to_pandas()
    merged = agg.merge(stats, on="term", how="left")
    out_t, out_term, out_co, out_pmi, out_r = [], [], [], [], []
    for ti, t in enumerate(targets):
        dfx = len(tgt_ids[t])
        g = merged[(merged[co_cols[ti]] >= PMI_MIN_CO)
                   & (merged["term"] != t)]
        if g.empty or dfx == 0:
            continue
        co = g[co_cols[ti]].to_numpy(dtype=np.float64)
        dfy = g["df"].to_numpy(dtype=np.float64)
        pmi = np.round(np.log((co * n_total) / (dfx * dfy)), 6)
        terms = g["term"].to_numpy()
        order = np.lexsort((terms, -pmi))[:PMI_M]
        m = order.size
        out_t.extend([t] * m)
        out_term.extend(terms[order].tolist())
        out_co.extend(co[order].astype(np.int64).tolist())
        out_pmi.extend(pmi[order].tolist())
        out_r.extend(range(1, m + 1))
    return pa.table({
        "target": pa.array(out_t, type=pa.string()),
        "term": pa.array(out_term, type=pa.string()),
        "co": pa.array(out_co, type=pa.int64()),
        "pmi": pa.array(out_pmi, type=pa.float64()),
        "rank": pa.array(out_r, type=pa.int64()),
    })


def related_terms_sql(targets=PMI_TARGETS, *, min_co: int = PMI_MIN_CO,
                      m: int = PMI_M) -> str:
    from .oracles import _sq

    parts = list(_BM25_CHAIN)
    parts.append(""",
    pres AS (SELECT DISTINCT doc_id, term FROM tok),
    dfs AS (SELECT term, count(*) AS df FROM pres GROUP BY term)""")
    selects = []
    for qi, t in enumerate(sorted(targets)):
        parts.append(f""",
        co{qi} AS (
            SELECT p2.term AS term, count(*) AS co
            FROM pres p1 JOIN pres p2 USING (doc_id)
            WHERE p1.term = '{_sq(t)}' AND p2.term <> '{_sq(t)}'
            GROUP BY p2.term
        )""")
        pmi = (f"round(ln((c.co * 1.0 * (SELECT n FROM stats)) / "
               f"((SELECT df FROM dfs WHERE term = '{_sq(t)}') * d.df)), 6)")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(t)}' AS target, c.term, c.co, {pmi} AS pmi,
                   row_number() OVER (
                       ORDER BY {pmi} DESC, c.term ASC) AS rank
            FROM co{qi} c JOIN dfs d USING (term)
            WHERE c.co >= {min_co}
        ) WHERE rank <= {m}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY target, rank")


# ---------------------------------------------------------- field collapse

def collapse_topk(sf_dir: str) -> pa.Table:
    """Field collapsing (Lucene grouping / Elasticsearch ``collapse``):
    per query, keep only the BEST-scoring document of each ``source``
    group (score desc, doc_id asc within the group), then return the
    global top-``COLLAPSE_K`` of the survivors — the result-diversity
    control every web-search deployment applies per site/domain.

    Scale shape: collapsing is per-shard group-argmax over the posting
    match stream (a (source) -> (best score, best doc) combine — one
    tiny per-shard state) followed by a merge of per-shard winners; no
    doc shuffle.  At gate scale the group key is one pruned column
    read + searchsorted."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    cat_ids, cat_src = _doc_field(
        os.path.join(sf_dir, "documents.parquet"), "source")

    rows = []
    for q in sorted(COLLAPSE_QUERIES):
        ids, sc = idx.score_terms(sorted(set(analyze_simple(q))))
        if not ids.size:
            continue
        r_ids, r_sc = _ranked(ids, sc)  # total order: score desc, id asc
        src = cat_src[np.searchsorted(cat_ids, r_ids.astype(np.int64))]
        # first occurrence per group in ranked order == group argmax
        _, first = np.unique(src, return_index=True)
        keep = np.sort(first)[:COLLAPSE_K]
        rows.extend(zip([q] * keep.size, src[keep].tolist(),
                        r_ids[keep].astype(np.int64).tolist(),
                        r_sc[keep].tolist()))
    return ranked_table(rows, "source", pa.string())


def collapse_topk_sql(queries=COLLAPSE_QUERIES, *, k: int = COLLAPSE_K,
                      k1: float = 1.2, b: float = 0.75) -> str:
    """Replays the collapse as two rank windows: row_number within the
    source partition picks the group winner, a second row_number over
    the winners cuts the global top-k."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = list(_BM25_CHAIN)
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),{_score_cte(str(qi), f"q{qi}", k1=k1, b=b)}""")
        selects.append(f"""
        SELECT query, source, doc_id, score, rank FROM (
            SELECT *, row_number() OVER (
                       ORDER BY score DESC, doc_id ASC) AS rank
            FROM (
                SELECT '{_sq(q)}' AS query, d.source AS source,
                       doc_id, round(s, 6) AS score,
                       row_number() OVER (PARTITION BY d.source
                           ORDER BY round(s, 6) DESC, doc_id ASC) AS grn
                FROM sc{qi} JOIN documents d USING (doc_id)
            ) WHERE grn = 1
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# ------------------------------------------------------ numeric range facets

def _band_label(lo, hi) -> str:
    return f"[{lo},{hi if hi is not None else 'inf'})"


def range_facets(sf_dir: str) -> pa.Table:
    """Numeric-range facets (bleve ``NumericRangeFacet``): per query,
    match count + best score within each half-open ``n_chars`` band
    over the FULL candidate set.  Empty bands are omitted (bleve
    reports only populated ranges).  Same scale shape as the term
    facet: a per-shard (query, band) partial combine."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    cat_ids, cat_nc = _doc_field(
        os.path.join(sf_dir, "documents.parquet"), "n_chars")
    edges = np.array([lo for lo, _ in RANGE_BANDS], dtype=np.int64)

    out_q, out_band, out_n, out_b = [], [], [], []
    for q in sorted(RANGE_QUERIES):
        ids, sc = idx.score_terms(sorted(set(analyze_simple(q))))
        if not ids.size:
            continue
        sc6 = np.round(sc, 6)
        nc = cat_nc[np.searchsorted(cat_ids, ids.astype(np.int64))]
        band = np.searchsorted(edges, nc, side="right") - 1
        for bi, (lo, hi) in enumerate(RANGE_BANDS):
            m = band == bi
            if not m.any():
                continue
            out_q.append(q)
            out_band.append(_band_label(lo, hi))
            out_n.append(int(m.sum()))
            out_b.append(float(sc6[m].max()))
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "band": pa.array(out_band, type=pa.string()),
        "n_docs": pa.array(out_n, type=pa.int64()),
        "best_score": pa.array(out_b, type=pa.float64()),
    })


def range_facets_sql(queries=RANGE_QUERIES, *, k1: float = 1.2,
                     b: float = 0.75) -> str:
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    cases = " ".join(
        f"WHEN d.n_chars >= {lo}" +
        (f" AND d.n_chars < {hi}" if hi is not None else "") +
        f" THEN '{_band_label(lo, hi)}'"
        for lo, hi in RANGE_BANDS)
    parts = list(_BM25_CHAIN)
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),{_score_cte(str(qi), f"q{qi}", k1=k1, b=b)}""")
        selects.append(f"""
        SELECT '{_sq(q)}' AS query,
               CASE {cases} END AS band,
               count(*) AS n_docs, max(round(s, 6)) AS best_score
        FROM sc{qi} JOIN documents d USING (doc_id)
        GROUP BY band""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, band")


# ----------------------------------------------------------------- explain

EXPLAIN_QUERIES = ("data processing pipeline", "fast scan merge")
EXPLAIN_TOP = 3

def explain_scores(sf_dir: str) -> pa.Table:
    """Score explanation (bleve/Lucene ``Explain``): for each query's
    top-``EXPLAIN_TOP`` documents, one row per matched term with the
    raw tf, the term's df, and the term's exact BM25 contribution —
    the relevance-debugging surface every search API exposes.

    Engine side this is free: the TAAT scorer already decodes
    (ids, tf, dl) per term; explain just keeps the per-term rows for
    the cut docs instead of summing them away.  At scale explanations
    are computed per shard for the k merged winners only."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out = {k: [] for k in ("query", "rank", "doc_id", "term",
                           "tf", "df", "score_part")}
    for q in sorted(EXPLAIN_QUERIES):
        terms = sorted(set(analyze_simple(q)))
        ids, sc = idx.score_terms(terms)
        if not ids.size:
            continue
        r_ids, _ = _ranked(ids, sc)
        top = r_ids[:EXPLAIN_TOP].astype(np.int64)
        rank_of = {int(d): r + 1 for r, d in enumerate(top)}
        for t, post in idx.postings(terms).items():
            pids = post.ids.astype(np.int64)
            hit = np.isin(pids, top)
            for d, f, p in zip(pids[hit], post.tf[hit], post.scores[hit]):
                out["query"].append(q)
                out["rank"].append(rank_of[int(d)])
                out["doc_id"].append(int(d))
                out["term"].append(t)
                out["tf"].append(int(f))
                out["df"].append(post.df)
                out["score_part"].append(round(float(p), 6))
    order = sorted(range(len(out["query"])),
                   key=lambda i: (out["query"][i], out["rank"][i],
                                  out["term"][i]))
    return pa.table({
        "query": pa.array([out["query"][i] for i in order], type=pa.string()),
        "rank": pa.array([out["rank"][i] for i in order], type=pa.int64()),
        "doc_id": pa.array([out["doc_id"][i] for i in order], type=pa.int64()),
        "term": pa.array([out["term"][i] for i in order], type=pa.string()),
        "tf": pa.array([out["tf"][i] for i in order], type=pa.int64()),
        "df": pa.array([out["df"][i] for i in order], type=pa.int64()),
        "score_part": pa.array([out["score_part"][i] for i in order],
                               type=pa.float64()),
    })


def explain_scores_sql(queries=EXPLAIN_QUERIES, *, top: int = EXPLAIN_TOP,
                       k1: float = 1.2, b: float = 0.75) -> str:
    """Replays the top cut AND every per-(doc, term) contribution, so
    posting tf/df decode and the per-term algebra are all hashed."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = list(_BM25_CHAIN)
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        parts.append(f""",
        q{qi}(term) AS (VALUES {qvals}),{_score_cte(str(qi), f"q{qi}", k1=k1, b=b)},
        top{qi} AS (
            SELECT doc_id, row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi} QUALIFY rank <= {top}
        )""")
        selects.append(f"""
        SELECT '{_sq(q)}' AS query, t.rank, f.doc_id, f.term,
               f.tf, d.df,
               round(ln(1 + (stats.n - d.df + 0.5) / (d.df + 0.5))
                     * f.tf / (f.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl)),
                     6) AS score_part
        FROM tfs{qi} f
        JOIN top{qi} t ON f.doc_id = t.doc_id
        JOIN dfs{qi} d ON f.term = d.term
        JOIN dl ON f.doc_id = dl.doc_id
        CROSS JOIN stats""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank, term")


# -------------------------------------------------------------- index stats

def index_stats(sf_dir: str) -> pa.Table:
    """Index integrity report, hash-checked against raw text: n_docs
    from the docs catalog's footers (it keeps zero-token docs, which
    the manifest's N leaves out), total_tokens from the manifest, plus
    counts RECOMPUTED from the postings parquet itself (n_terms =
    distinct dictionary terms, n_postings = Σ block n = distinct
    (term, doc) pairs — salting splits postings across salt partitions
    without duplication, so the sum stays exact).

    Scale shape: one narrow (term, n) column scan with per-batch
    partials; exact distinct-term counting is O(vocabulary) at the
    driver — beyond ~10^8 terms use the vocab_hll_sketch gate
    (pipelines/sketches.py) as the approximate path."""
    import glob

    import pyarrow.parquet as pq

    from ..functions.tables import read_parquet_nometa
    from ..state.manifest import IndexManifest
    from .expand import simple_index_cached

    d = simple_index_cached(sf_dir)
    m = IndexManifest.load(d)
    n_docs = sum(pq.read_metadata(f).num_rows
                 for f in glob.glob(f"{d}/docs/*.parquet"))
    pdir = os.path.join(d, "postings")
    files = sorted(os.path.join(pdir, f) for f in os.listdir(pdir)
                   if f.endswith(".parquet"))

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        u = pc.unique(t["term"])
        n = int(pc.sum(t["n"]).as_py() or 0)
        return pa.table({
            "term": u,
            "n_post": pa.array([n] + [0] * (len(u) - 1), type=pa.int64()),
        })

    if files:
        agg = read_parquet_nometa(files, columns=["term", "n"]) \
            .map_batches(partial, batch_format="pyarrow").to_pandas()
        n_terms, n_post = int(agg["term"].nunique()), int(agg["n_post"].sum())
    else:                           # empty index: no postings at all
        n_terms, n_post = 0, 0
    return pa.table({
        "n_docs": pa.array([n_docs], type=pa.int64()),
        "total_tokens": pa.array([int(m.total_dl)], type=pa.int64()),
        "n_terms": pa.array([n_terms], type=pa.int64()),
        "n_postings": pa.array([n_post], type=pa.int64()),
    })


def index_stats_sql() -> str:
    """Oracle: the same four counts straight from raw text."""
    return """
        WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array(
            lower(text), '[^a-z0-9]+')) AS term FROM documents),
        tok AS (SELECT * FROM toks WHERE term <> '')
        SELECT (SELECT count(*) FROM documents) AS n_docs,
               (SELECT count(*) FROM tok) AS total_tokens,
               (SELECT count(DISTINCT term) FROM tok) AS n_terms,
               (SELECT count(DISTINCT (term, doc_id)) FROM tok)
                   AS n_postings
    """


# ----------------------------------------------------------- term vectors

TV_MOD = 53
TV_RESIDUE = 7


def term_vectors(sf_dir: str) -> pa.Table:
    """ES ``_termvectors`` analog: per selected document the full
    (term, tf, first 1-based position) vector.  Like ES when term
    vectors are not index-stored, the service RE-ANALYZES the stored
    source field on the fly — the honest access path; reading a forward
    vector out of an inverted index would be a full dictionary scan.

    Scale shape: the doc-id selection is a pushdown filter (row groups
    whose doc_id stats miss the residue class never leave storage at
    scale; here a per-batch mask), then ONE dictionary-coded vectorized
    kernel per batch (tf via packed-key np.unique, first position via
    np.minimum.at) — output rows are O(selected docs × their distinct
    terms), never corpus-sized."""
    import numpy as np

    from .queries import _docs, _tok_codes

    def tv_batch(batch: pa.Table) -> pa.Table:
        out_schema = pa.schema([
            ("doc_id", pa.int64()), ("term", pa.string()),
            ("tf", pa.int64()), ("first_pos", pa.int64())])
        ids_all = batch["doc_id"].to_numpy()
        sel = (ids_all % TV_MOD) == TV_RESIDUE
        if not sel.any():
            return out_schema.empty_table()
        batch = batch.filter(pa.array(sel))
        codes, doc_idx, vocab = _tok_codes(batch)
        if codes.size == 0:
            return out_schema.empty_table()
        nrows = batch.num_rows
        dl = np.bincount(doc_idx, minlength=nrows)
        starts = np.zeros(nrows, dtype=np.int64)
        np.cumsum(dl[:-1], out=starts[1:])
        pos1 = np.arange(codes.size, dtype=np.int64) - starts[doc_idx] + 1
        key = doc_idx.astype(np.int64) * len(vocab) + codes
        uk, inv, tf = np.unique(key, return_inverse=True,
                                return_counts=True)
        first = np.full(uk.size, np.iinfo(np.int64).max)
        np.minimum.at(first, inv, pos1)
        ids = batch["doc_id"].to_numpy()[uk // len(vocab)]
        terms = [vocab[c] for c in (uk % len(vocab)).tolist()]
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "term": pa.array(terms, type=pa.string()),
            "tf": pa.array(tf.astype(np.int64)),
            "first_pos": pa.array(first),
        })

    from ..functions.tables import block_tables

    parts = block_tables(_docs(sf_dir).map_batches(
        tv_batch, batch_format="pyarrow"))
    if not parts:
        return pa.schema([
            ("doc_id", pa.int64()), ("term", pa.string()),
            ("tf", pa.int64()), ("first_pos", pa.int64()),
        ]).empty_table()
    return pa.concat_tables(parts).sort_by(
        [("doc_id", "ascending"), ("term", "ascending")])


def term_vectors_sql(*, mod: int = TV_MOD, residue: int = TV_RESIDUE) -> str:
    """Oracle: token ordinality re-derived from raw text for the
    selected residue class; tf = count, first_pos = min ordinal."""
    return f"""
        WITH arrs AS (
            SELECT doc_id, list_filter(regexp_split_to_array(
                lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr
            FROM documents WHERE doc_id % {mod} = {residue}
        ),
        pos AS (
            SELECT doc_id, arr[i] AS term, i
            FROM (SELECT doc_id, arr,
                         unnest(generate_series(1, len(arr))) AS i
                  FROM arrs)
        )
        SELECT doc_id, term, count(*) AS tf,
               CAST(min(i) AS BIGINT) AS first_pos
        FROM pos GROUP BY doc_id, term
        ORDER BY doc_id, term
    """


# --------------------------------------------------------- phrase suggest

PS_QUERIES = ("fast scann", "dato processing", "tabl window")
PS_M = 3


def phrase_suggest(sf_dir: str) -> pa.Table:
    """Phrase suggester (Lucene PhraseSuggester / ES ``phrase`` suggest):
    the multi-term did-you-mean.  Each input term expands to its
    edit-distance<=1 dictionary candidates (ONE distributed dictionary
    scan — the fuzzy_topk kernel — for all queries), and every candidate
    pair is scored by its exact-adjacency corpus frequency read off the
    POSITIONS STORE (the phrase-counting probe): real-context evidence,
    which is exactly what separates a phrase suggester from per-term
    spell correction.  Top-M pairs by (bigram count desc, suggestion
    asc) per input.

    Scale shape: dictionary scan is column-pruned + vectorized; each
    candidate-pair probe touches only the two terms' posting blocks;
    candidate fan-out is bounded by the edit-1 ball (tiny)."""
    from ..analysis.analyzer import analyze_simple
    from .boolquery import phrase_counts_from_index
    from .expand import expand_terms, simple_index_cached
    from .query import BM25Index

    idx_dir = simple_index_cached(sf_dir)
    idx = BM25Index(idx_dir)
    all_terms = sorted({t for q in PS_QUERIES for t in analyze_simple(q)})
    cand = expand_terms(idx_dir, fuzzy=tuple(all_terms))
    out_q, out_s, out_n, out_r = [], [], [], []
    for q in sorted(PS_QUERIES):
        t1, t2 = analyze_simple(q)[:2]
        pairs = []
        for c1 in cand.get(t1, []):
            for c2 in cand.get(t2, []):
                _nd, nm = phrase_counts_from_index(idx, [c1, c2])
                if nm > 0:
                    pairs.append((c1 + " " + c2, nm))
        pairs.sort(key=lambda p: (-p[1], p[0]))
        for r, (sug, nm) in enumerate(pairs[:PS_M], 1):
            out_q.append(q)
            out_s.append(sug)
            out_n.append(nm)
            out_r.append(r)
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "suggestion": pa.array(out_s, type=pa.string()),
        "n_matches": pa.array(out_n, type=pa.int64()),
        "rank": pa.array(out_r, type=pa.int64()),
    })


def phrase_suggest_sql(queries=PS_QUERIES, *, m: int = PS_M) -> str:
    """Oracle: dictionary + levenshtein<=1 candidate sets, adjacency
    counts over re-derived token ordinality, and the (count desc,
    suggestion asc) rank window — all from raw text."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH arrs AS (SELECT doc_id, list_filter(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr FROM documents),",
        "pos AS (SELECT doc_id, arr, unnest(generate_series(1, len(arr)))"
        " AS i FROM arrs),",
        "dict AS (SELECT DISTINCT unnest(arr) AS term FROM arrs)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        t1, t2 = analyze_simple(q)[:2]
        parts.append(f""",
        c1q{qi} AS (SELECT term FROM dict
                    WHERE levenshtein(term, '{_sq(t1)}') <= 1),
        c2q{qi} AS (SELECT term FROM dict
                    WHERE levenshtein(term, '{_sq(t2)}') <= 1),
        pc{qi} AS (
            SELECT a.term || ' ' || b.term AS suggestion,
                   count(*) AS n_matches
            FROM pos p
            JOIN c1q{qi} a ON p.arr[p.i] = a.term
            JOIN c2q{qi} b ON p.arr[p.i + 1] = b.term
            GROUP BY 1
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, suggestion,
                   CAST(n_matches AS BIGINT) AS n_matches,
                   row_number() OVER (
                       ORDER BY n_matches DESC, suggestion ASC) AS rank
            FROM pc{qi}
        ) WHERE rank <= {m}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# ------------------------------------------------------ adjacency matrix

ADJ_QUERIES = FACET_QUERIES


def query_adjacency(sf_dir: str) -> pa.Table:
    """adjacency_matrix — the ES co-occurrence aggregation: for every
    pair of registered queries (a <= b, diagonal included), the number
    of documents matching BOTH query filters, where a query's filter is
    its OR-of-terms candidate set (the facet_counts contract).  Empty
    intersections are omitted (ES drops empty buckets).

    Scale shape: one streaming pass over the corpus — each batch
    computes a (queries × rows) boolean membership matrix from the
    broadcast term lists (vectorized is_in over the flattened token
    column) and emits its Q×Q co-count partial; the shuffle carries
    O(Q² × blocks) integer rows and the driver holds one Q×Q matrix.
    No per-pair corpus passes, no doc-id lists ever move."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..analysis.analyzer import analyze_simple
    from ..functions.tables import read_parquet_nometa, typed_pandas

    queries = sorted(ADJ_QUERIES)
    nq = len(queries)
    qsets = [sorted(set(analyze_simple(q))) for q in queries]

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t["text"]), pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        parent = toks.value_parent_indices().to_numpy().astype(np.int64)
        flat = toks.flatten()
        member = np.zeros((nq, t.num_rows), dtype=bool)
        for qi, terms in enumerate(qsets):
            m = pc.is_in(flat, value_set=pa.array(terms, type=pa.string()))
            m = m.to_numpy(zero_copy_only=False)
            if m.any():
                member[qi, parent[m]] = True
        co = member.astype(np.int64) @ member.T.astype(np.int64)
        ai, bi = np.triu_indices(nq)
        return pa.table({
            "pair": pa.array(ai * nq + bi, type=pa.int64()),
            "n_docs": pa.array(co[ai, bi], type=pa.int64()),
        })

    agg = typed_pandas(
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("n_docs", alias_name="n_docs")),
        {"pair": "int64", "n_docs": "int64"})
    agg = agg[agg["n_docs"] > 0].sort_values("pair")
    pair = agg["pair"].to_numpy().astype(np.int64)
    return pa.table({
        "query_a": pa.array([queries[p // nq] for p in pair],
                            type=pa.string()),
        "query_b": pa.array([queries[p % nq] for p in pair],
                            type=pa.string()),
        "n_docs": pa.array(agg["n_docs"].astype("int64").tolist(),
                           type=pa.int64()),
    })


def query_adjacency_sql(queries=ADJ_QUERIES) -> str:
    """Oracle: one DISTINCT-membership CTE per query (term lists from
    the engine's analyzer at generation time — the expansion-SQL
    precedent), one scalar intersection count per pair."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    qs = sorted(queries)
    parts = list(_BM25_CHAIN[:2])       # toks + tok CTEs
    for qi, q in enumerate(qs):
        terms = ", ".join(f"'{_sq(t)}'"
                          for t in sorted(set(analyze_simple(q))))
        parts.append(
            f"m{qi} AS (SELECT DISTINCT doc_id FROM tok "
            f"WHERE term IN ({terms})),")
    parts[-1] = parts[-1].rstrip(",")
    selects = []
    for a in range(len(qs)):
        for b in range(a, len(qs)):
            cnt = (f"(SELECT count(*) FROM m{a})" if a == b else
                   f"(SELECT count(*) FROM m{a} JOIN m{b} USING (doc_id))")
            selects.append(
                f"SELECT '{_sq(qs[a])}' AS query_a, "
                f"'{_sq(qs[b])}' AS query_b, {cnt} AS n_docs")
    return ("".join(parts)
            + " SELECT * FROM (" + " UNION ALL ".join(selects)
            + ") WHERE n_docs > 0 ORDER BY query_a, query_b")
