"""Snippet selection: best-window highlighting from the positions store.

The ES/Lucene highlighter semantics (unified highlighter's passage
scoring, reduced to its core): for every candidate doc, the best
W-token window is the one covering the MOST DISTINCT query terms,
ties broken by the leftmost start.  The winning (start, covered-terms)
pair per doc — i.e. which passage a UI would show — is computed from
posting POSITIONS ONLY (SURVEY §2 S8/M9: the span→snippet machinery;
reference analog `/root/reference/internal/doclib/search_pdfs.go`
best-phrase spans): the doc text is never read.

This puts the snippet-selection decision itself under the driver's
value hash — the existing render/markup path (`pipelines/render.py`)
is pytest-gated; this gate is its SQL-oracled projection.

Shape: per query, one bucket-pruned positions read for the query
terms (the phrase-query read path), then a fully vectorized window
sweep — every hit is a window anchor (the optimal window can always
be shifted left to start on a hit), and per term a pair of
searchsorted calls answers "does term j occur in [a, a+W)" for ALL
anchors at once.  Driver work is O(query-term postings), the same
budget as the phrase gates; at cluster scale the identical sweep runs
per doc-range shard with a trivial (win_terms desc, doc asc) top-K
merge — no cross-shard state, the same partitioning story as
`federated_topk`.

Oracle: DuckDB re-derives token ordinality, the window join
(b.i in [a.i, a.i+W)), the distinct-term counts, the per-doc argmax
and the global top-K from raw text.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["snippet_windows", "snippet_sql",
           "SNIPPET_QUERIES", "SNIPPET_W", "SNIPPET_K"]

SNIPPET_QUERIES = ("data stream filter", "fast scan merge",
                   "big dup table")
SNIPPET_W = 8     # window width in tokens
SNIPPET_K = 20    # docs reported per query


def snippet_windows(sf_dir: str) -> pa.Table:
    """Best-window gate: (query, doc_id, win_start, win_terms, rank)
    for the top-K docs by (covered terms desc, doc asc); win_start is
    the 1-based token position of the window's anchor hit."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out_q, out_d, out_s, out_n = [], [], [], []
    for q in sorted(SNIPPET_QUERIES):
        posts = idx.postings(analyze_simple(q))
        id_parts = [p.ids for p in posts.values() if p.ids.size]
        if not id_parts:
            continue
        union = np.unique(np.concatenate(id_parts))
        keys_per_term = [np.sort(p.position_keys(union))
                         for p in posts.values()]
        anchors = np.concatenate(
            [k for k in keys_per_term if k.size]) if keys_per_term \
            else np.empty(0, dtype=np.uint64)
        if not anchors.size:
            continue
        w = np.uint64(SNIPPET_W)
        nt = np.zeros(anchors.size, dtype=np.int64)
        for kj in keys_per_term:
            if kj.size:
                nt += (np.searchsorted(kj, anchors + w)
                       > np.searchsorted(kj, anchors))
        doc_code = (anchors >> np.uint64(32)).astype(np.int64)
        pos = (anchors & np.uint64(0xFFFFFFFF)).astype(np.int64)
        # best anchor per doc: (nt desc, pos asc)
        order = np.lexsort((pos, -nt, doc_code))
        first = np.r_[True, doc_code[order][1:] != doc_code[order][:-1]]
        best = order[first]
        b_doc = union[doc_code[best]].astype(np.int64)
        b_pos = pos[best]
        b_nt = nt[best]
        top = np.lexsort((b_doc, -b_nt))[:SNIPPET_K]
        out_q.extend([q] * top.size)
        out_d.extend(b_doc[top].tolist())
        out_s.extend(b_pos[top].tolist())
        out_n.extend(b_nt[top].tolist())
    ranks: list[int] = []
    prev = None
    for q in out_q:
        ranks.append(1 if q != prev else ranks[-1] + 1)
        prev = q
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "win_start": pa.array(out_s, type=pa.int64()),
        "win_terms": pa.array(out_n, type=pa.int64()),
        "rank": pa.array(ranks, type=pa.int64()),
    })


def snippet_sql(queries=SNIPPET_QUERIES, *, w: int = SNIPPET_W,
                k: int = SNIPPET_K) -> str:
    """Oracle: window join over token ordinality, distinct-term count,
    per-doc (nt desc, start asc) argmax, global (nt desc, doc asc)
    top-K."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH arrs AS (SELECT doc_id, list_filter(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+'), x -> x <> '') AS arr FROM documents),",
        "pos AS (SELECT doc_id, arr, unnest(generate_series(1, len(arr)))"
        " AS i FROM arrs)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        tl = ", ".join(f"'{_sq(t)}'" for t in terms) or "''"
        parts.append(f""",
        hits{qi} AS (
            SELECT doc_id, i, arr[i] AS term FROM pos
            WHERE arr[i] IN ({tl})
        ),
        win{qi} AS (
            SELECT a.doc_id, a.i AS s, count(DISTINCT b.term) AS nt
            FROM hits{qi} a JOIN hits{qi} b
              ON b.doc_id = a.doc_id AND b.i >= a.i AND b.i < a.i + {w}
            GROUP BY a.doc_id, a.i
        ),
        best{qi} AS (
            SELECT doc_id, s, nt,
                   row_number() OVER (
                       PARTITION BY doc_id
                       ORDER BY nt DESC, s ASC) AS rr
            FROM win{qi}
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id,
                   CAST(s AS BIGINT) AS win_start,
                   CAST(nt AS BIGINT) AS win_terms,
                   row_number() OVER (
                       ORDER BY nt DESC, doc_id ASC) AS rank
            FROM best{qi} WHERE rr = 1
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")
