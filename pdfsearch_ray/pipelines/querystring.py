"""Query-string parser + executor: the `+must -not term^boost "phrase"`
surface every Lucene/bleve front door exposes.

The individual clause semantics all exist as separate gates (AND /
MUST_NOT / boosts / ranked phrase); this module supplies what a USER
of the reference actually types — one string parsed into clauses and
executed as a single scored query:

* bare `term`        — SHOULD: contributes its BM25 score,
* `+term`            — MUST: doc must contain it; still contributes,
* `-term`            — MUST_NOT: doc excluded; never contributes,
* `term^2.5`         — boost multiplier on that clause's contribution
                       (repeated clauses sum boosts, the Lucene rule),
* `"w1 w2"`          — two-word exact-phrase clause (positions-store
                       tf, phrase df for idf; `+`/`-`/`^` compose).

score(d) = Σ_{scoring clauses} boost · BM25_clause(d) over docs that
contain every MUST clause and no MUST_NOT clause.  The parser is
SHARED between the gate and its oracle builder (the parse_boost_query
precedent, scorequery.py:201) so both sides execute the identical
parse; the parser itself is pinned by planted pytests.

Scale shape: candidate generation is the per-term posting-pruned TAAT
pass (scorequery.per_term_scores) + the positional phrase pass
(boolquery._phrase_starts); the boolean algebra is aligned vector
masks over the candidate union — no extra I/O beyond the clauses'
postings, same as the AND/NOT gates.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

__all__ = ["parse_query_string", "querystring_topk", "querystring_sql",
           "QS_QUERIES", "QS_K"]

# vocab-aware fixed query set: exercises every grammar feature, incl.
# a must_not that prunes, a boost that reorders, and phrase clauses
QS_QUERIES = (
    'data +filter -dup "fast scan"',
    '+table window^2 -big',
    'scan merge^0.5 +join',
    '-value "slow merge" big^3',
)
QS_K = 10

_TOKEN_RE = re.compile(
    r'([+-]?)(?:"([^"]+)"|([^\s^"]+))(?:\^(\d+(?:\.\d+)?))?')


def parse_query_string(qs: str):
    """qs -> {"terms": {(analyzed term): [occur, boost]},
              "phrases": {(t1, t2): [occur, boost]}} with occur in
    {"should", "must", "must_not"}; repeated clauses sum boosts and a
    must/must_not prefix on any repetition wins over should."""
    from ..analysis.analyzer import analyze_simple

    rank = {"should": 0, "must": 1, "must_not": 2}
    terms: dict[str, list] = {}
    phrases: dict[tuple, list] = {}
    for m in _TOKEN_RE.finditer(qs):
        prefix, phrase, word, w = m.groups()
        occur = {"+": "must", "-": "must_not"}.get(prefix, "should")
        boost = float(w) if w else 1.0
        if phrase is not None:
            toks = analyze_simple(phrase)
            if len(toks) < 2:
                word, phrase = (toks[0] if toks else ""), None
            else:
                key = tuple(toks[:2])
                cur = phrases.setdefault(key, ["should", 0.0])
                if rank[occur] > rank[cur[0]]:
                    cur[0] = occur
                cur[1] += boost
                continue
        for t in analyze_simple(word or ""):
            cur = terms.setdefault(t, ["should", 0.0])
            if rank[occur] > rank[cur[0]]:
                cur[0] = occur
            cur[1] += boost
    return {"terms": terms, "phrases": phrases}


def _phrase_scores(idx, pair):
    """(sorted doc_ids, BM25 contribution) of a two-word phrase."""
    from .boolquery import _phrase_bm25, _phrase_starts

    common, starts = _phrase_starts(idx, list(pair))
    if starts.size == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0)
    codes, tf = np.unique(starts >> np.uint64(32), return_counts=True)
    docs = common[codes.astype(np.int64)]
    return docs, _phrase_bm25(idx, docs, tf)


def querystring_topk(sf_dir: str) -> pa.Table:
    """The parsed-query gate: (query, doc_id, score, rank)."""
    from .expand import simple_index_cached
    from .query import BM25Index
    from .scorequery import _ranked_table, _topk_rows, per_term_scores

    idx = BM25Index(simple_index_cached(sf_dir))
    rows: list[tuple] = []
    for qs in sorted(QS_QUERIES):
        p = parse_query_string(qs)
        term_items = sorted(p["terms"].items())
        phrase_items = sorted(p["phrases"].items())
        scoring_terms = [t for t, (o, _) in term_items
                         if o != "must_not"]
        per_term = per_term_scores(
            idx, [t for t, _ in term_items])
        # phrase contribution vectors live on their own doc sets
        phrase_posts = {pr: _phrase_scores(idx, pr)
                        for pr, _ in phrase_items}
        cand_parts = [per_term[t][0] for t in scoring_terms
                      if per_term[t][0].size]
        cand_parts += [d for pr, (d, _) in phrase_posts.items()
                       if p["phrases"][pr][0] != "must_not" and d.size]
        if not cand_parts:
            continue
        union = np.unique(np.concatenate(cand_parts))
        score = np.zeros(union.size)
        keep = np.ones(union.size, dtype=bool)
        for t, (occ, boost) in term_items:
            ids_t, sc_t = per_term[t]
            v = np.zeros(union.size)
            if ids_t.size:
                pos = np.searchsorted(union, ids_t)
                ok = (pos < union.size)
                pos_c = np.minimum(pos, max(union.size - 1, 0))
                ok &= union[pos_c] == ids_t
                v[pos_c[ok]] = sc_t[ok]
            present = v > 0
            if occ == "must":
                keep &= present
                score += boost * v
            elif occ == "must_not":
                keep &= ~present
            else:
                score += boost * v
        for pr, (occ, boost) in phrase_items:
            docs, c = phrase_posts[pr]
            v = np.zeros(union.size)
            present = np.zeros(union.size, dtype=bool)
            if docs.size:
                pos = np.searchsorted(union, docs)
                ok = pos < union.size
                pos_c = np.minimum(pos, max(union.size - 1, 0))
                ok &= union[pos_c] == docs
                v[pos_c[ok]] = c[ok]
                present[pos_c[ok]] = True
            if occ == "must":
                keep &= present
                score += boost * v
            elif occ == "must_not":
                keep &= ~present
            else:
                score += boost * v
        keep &= score > 0
        if not keep.any():
            continue
        rows.extend(_topk_rows(qs, union[keep], score[keep], QS_K))
    return _ranked_table(rows)


def querystring_sql(queries=QS_QUERIES, *, k: int = QS_K,
                    k1: float = 1.2, b: float = 0.75) -> str:
    """Oracle: the SAME parse drives a generated SQL chain — per-clause
    BM25 contributions (term df / phrase df via pair ordinality),
    boost algebra, MUST/MUST_NOT masks, final (score desc, doc asc)
    top-K."""
    from .oracles import _sq

    parts = [
        "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+')) AS term FROM documents),",
        "tok AS (SELECT * FROM toks WHERE term <> ''),",
        "arrs AS (SELECT doc_id, list_filter(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr FROM documents),",
        "pos AS (SELECT doc_id, arr, unnest(generate_series(1, len(arr)))"
        " AS i FROM arrs),",
        "dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl)",
    ]
    selects = []
    for qi, qs in enumerate(sorted(queries)):
        p = parse_query_string(qs)
        contrib_ctes, contrib_names = [], []
        must_names, not_names = [], []
        ci = 0
        for t, (occ, boost) in sorted(p["terms"].items()):
            name = f"tc{qi}_{ci}"
            ci += 1
            contrib_ctes.append(f"""
        {name}tf AS (
            SELECT doc_id, count(*) AS tf FROM tok
            WHERE term = '{_sq(t)}' GROUP BY doc_id
        ),
        {name} AS (
            SELECT f.doc_id,
                   {boost} * ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                       * f.tf / (f.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                       AS c
            FROM {name}tf f
            CROSS JOIN stats
            CROSS JOIN (SELECT count(*) AS df FROM {name}tf) df
            JOIN dl ON f.doc_id = dl.doc_id
        )""")
            if occ == "must_not":
                not_names.append(name)
            else:
                contrib_names.append(name)
                if occ == "must":
                    must_names.append(name)
        for (t1, t2), (occ, boost) in sorted(p["phrases"].items()):
            name = f"pc{qi}_{ci}"
            ci += 1
            contrib_ctes.append(f"""
        {name}tf AS (
            SELECT a.doc_id, count(*) AS tf
            FROM pos a JOIN pos b
              ON b.doc_id = a.doc_id AND b.i = a.i + 1
            WHERE a.arr[a.i] = '{_sq(t1)}' AND b.arr[b.i] = '{_sq(t2)}'
            GROUP BY a.doc_id
        ),
        {name} AS (
            SELECT f.doc_id,
                   {boost} * ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                       * f.tf / (f.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                       AS c
            FROM {name}tf f
            CROSS JOIN stats
            CROSS JOIN (SELECT count(*) AS df FROM {name}tf) df
            JOIN dl ON f.doc_id = dl.doc_id
        )""")
            if occ == "must_not":
                not_names.append(name)
            else:
                contrib_names.append(name)
                if occ == "must":
                    must_names.append(name)
        union_sql = " UNION ALL ".join(
            f"SELECT doc_id, c FROM {n}" for n in contrib_names)
        must_sql = " ".join(
            f"AND doc_id IN (SELECT doc_id FROM {n})"
            for n in must_names)
        not_sql = " ".join(
            f"AND doc_id NOT IN (SELECT doc_id FROM {n})"
            for n in not_names)
        parts.append("," + ",".join(contrib_ctes) + f""",
        sc{qi} AS (
            SELECT doc_id, sum(c) AS s FROM ({union_sql})
            GROUP BY doc_id
            HAVING sum(c) > 0 {must_sql} {not_sql}
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(qs)}' AS query, doc_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")
