"""Divergence-from-randomness ranking: PL2 (Amati & van Rijsbergen,
TOIS 2002; the Terrier default).

Completes the classic scoring QUARTET next to BM25 (probabilistic),
SMART lnc.ltc (vector space) and LM Dirichlet (language model): PL2 is
the DFR family's flagship — a Poisson randomness model (P), Laplace
after-effect (L) and normalization 2 (length-scaled tf):

    tfn      = tf * log2(1 + c * avgdl / dl)          (c = 1.0)
    lambda_t = cf_t / N                (collection frequency / docs)
    score    = sum_t (tfn * log2(tfn/lambda) + (lambda - tfn) * log2(e)
                      + 0.5 * log2(2*pi*tfn)) / (tfn + 1)

Read path: the shared simple index (expand.simple_index_cached), the
one the BM25 gates score through.  Per query term, ``postings`` gives
each matching doc's tf and dl; the collection frequency cf_t is the
sum of the term's tf, and N, avgdl come from the index manifest (N
counts the docs with at least one token, avgdl = total_dl / N).  Terms
are summed in sorted order, then the 6-dp rounded top-k is cut.

log2 is evaluated as ``ln(x) * (1/ln(2))`` on BOTH sides (numpy and
the DuckDB oracle) so the two compute bit-identical doubles; the
oracle recomputes tokenization, tf/df/cf/N/avgdl and the PL2 algebra
from raw text.  The reference's bleve engine has no DFR model — this
is a beyond-reference scorer (reference scoring surface:
search_pdfs.go BM25 via bleve).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["dfr_pl2_topk", "dfr_pl2_sql", "DFR_QUERIES", "DFR_K",
           "DFR_C"]

DFR_QUERIES = ("data stream merge", "fast scan sort", "dup window")
DFR_K = 10
DFR_C = 1.0


def dfr_pl2_topk(sf_dir: str, *, queries=DFR_QUERIES,
                 k: int = DFR_K, c: float = DFR_C) -> pa.Table:
    """PL2 top-k over `documents` for the fixed query set, scored from
    the shared simple index's postings."""
    from ..analysis.analyzer import analyze_simple
    from ..functions.tables import ranked_table, topk_rows
    from .expand import simple_index_cached
    from .query import BM25Index
    from .scorequery import summed_scores

    idx = BM25Index(simple_index_cached(sf_dir))
    n = float(idx.manifest.n_docs)
    if not n:
        return ranked_table([])
    avgdl = float(idx.manifest.total_dl) / n
    inv_ln2 = 1.0 / np.log(2.0)
    two_pi = 2.0 * np.pi

    def pl2(pl) -> np.ndarray:
        lam = float(pl.tf.sum()) / n
        # normalization 2: length-scaled tf
        tfn = pl.tf.astype(np.float64) * (
            np.log(1.0 + c * avgdl / pl.dl.astype(np.float64)) * inv_ln2)
        return (tfn * (np.log(tfn / lam) * inv_ln2)
                + (lam - tfn) * inv_ln2
                + 0.5 * (np.log(two_pi * tfn) * inv_ln2)) / (tfn + 1.0)

    rows = []
    for q in sorted(queries):
        rows.extend(topk_rows(
            q, *summed_scores(idx, analyze_simple(q), pl2), k))
    return ranked_table(rows)


def dfr_pl2_sql(queries=DFR_QUERIES, *, k: int = DFR_K,
                c: float = DFR_C) -> str:
    """Oracle: DuckDB recomputes tokenization, tf, dl, N, avgdl, cf
    and the PL2 algebra from raw text — log2 spelled ``ln(x) *
    (1/ln(2))`` to match the engine's numpy evaluation exactly."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+')) AS term FROM documents),",
        "tok AS (SELECT * FROM toks WHERE term <> ''),",
        "dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),",
        "stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),",
        "cfs AS (SELECT term, count(*) AS cf FROM tok GROUP BY term)",
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
        tn{qi} AS (
            SELECT tfs{qi}.doc_id,
                   tfs{qi}.tf * (ln(1 + {c} * stats.avgdl / dl.dl)
                                 * (1 / ln(2))) AS tfn,
                   CAST(cfs.cf AS DOUBLE) / stats.n AS lam
            FROM tfs{qi}
            CROSS JOIN stats
            JOIN cfs ON tfs{qi}.term = cfs.term
            JOIN dl ON tfs{qi}.doc_id = dl.doc_id
        ),
        sc{qi} AS (
            SELECT doc_id,
                   round(sum((tfn * (ln(tfn / lam) * (1 / ln(2)))
                              + (lam - tfn) * (1 / ln(2))
                              + 0.5 * (ln(2 * pi() * tfn) * (1 / ln(2)))
                              ) / (tfn + 1)), 6) AS s
            FROM tn{qi} GROUP BY doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, doc_id, s AS score,
                   row_number() OVER (
                       ORDER BY s DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")
