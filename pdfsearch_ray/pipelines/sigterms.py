"""Significant terms: which terms are OVER-represented in a query's
match set relative to the whole corpus — the Lucene/Elasticsearch
``significant_terms`` aggregation ("uncommonly common" terms), the
standard exploration/drill-down feature over a search engine and a
useful topic-surfacing primitive for corpus curation.

Semantics: foreground = docs matching ANY analyzed query term (the OR
match set, taken from the index exactly like facet_counts); for every
term with foreground doc-frequency ≥ MIN_FG (and not itself a query
term), score = lift = (fg/n_fg) / (bg/N) computed as the single
double division ``(fg·N) / (n_fg·bg)`` and rounded to 6 dp; top
SIG_M per query by (lift desc, term asc).

Scale shape:

* ONE tokenize pass over the corpus computes bg and all per-query fg
  counts together: a vectorized per-batch combiner (arrow split,
  pandas factorize, np.unique over packed (row, term) codes — the
  distinct-pair collapse — then one bincount per counter) emits
  batch-vocabulary-sized partials, so the term groupby shuffles
  vocabulary rows, not token rows (pre-aggregate before the groupby,
  with fg columns riding along for free).
* Foreground membership is a broadcast sorted doc_id array per query
  (ray.put once, searchsorted per batch) — match sets never shuffle.
* The aggregated (term, bg, fg…) table is vocabulary-sized (small by
  Heaps' law, as the index dictionary is); scoring and the
  top-M cut happen on that table, O(vocab) driver state.

The DuckDB oracle recomputes tokenization, the OR match sets, both
doc-frequency views and the lift algebra from raw text, so the
broadcast membership, the packed-code distinct collapse and the
combiner sums are all under the driver's value hash.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["significant_terms", "significant_terms_sql",
           "SIG_QUERIES", "SIG_M", "SIG_MIN_FG"]

SIG_QUERIES = ("customer query", "fast scan merge", "window table")
SIG_M = 15       # terms reported per query
SIG_MIN_FG = 10  # minimum foreground doc frequency to be scored


def _fg_sets(sf_dir: str, queries):
    """{query: sorted doc_id array of its OR match set} via the shared
    cached simple index."""
    from ..analysis.analyzer import analyze_simple
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    out = {}
    for q in queries:
        ids, _ = idx.score_terms(sorted(set(analyze_simple(q))))
        out[q] = np.sort(ids.astype(np.int64))
    return out


def _member(sorted_ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    if not sorted_ids.size:
        return np.zeros(x.shape, dtype=bool)
    pos = np.searchsorted(sorted_ids, x)
    pos_c = np.minimum(pos, sorted_ids.size - 1)
    return (pos < sorted_ids.size) & (sorted_ids[pos_c] == x)


def significant_terms(sf_dir: str) -> pa.Table:
    """Driver gate: (query, term, fg_df, bg_df, lift, rank)."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray
    from ray.data.aggregate import Sum

    from ..analysis.analyzer import analyze_simple
    from ..functions.tables import read_parquet_nometa

    queries = sorted(SIG_QUERIES)
    fg = _fg_sets(sf_dir, queries)
    n_total = pq.ParquetFile(
        f"{sf_dir}/documents.parquet").metadata.num_rows
    ref = ray.put([fg[q] for q in queries])
    nq = len(queries)

    def partial(batch: pa.Table) -> pa.Table:
        fg_sets = ray.get(ref)
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch["text"]), pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        parent = toks.value_parent_indices().to_numpy().astype(np.int64)
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        words = flat.to_numpy(zero_copy_only=False)[ok]
        if not words.size:
            cols = {"term": pa.array([], type=pa.string()),
                    "bg_part": pa.array([], type=pa.int64())}
            for i in range(nq):
                cols[f"fg{i}_part"] = pa.array([], type=pa.int64())
            return pa.table(cols)
        codes, uniq = pd.factorize(words)
        rows = parent[ok]
        packed = np.unique(rows * np.int64(uniq.size) + codes)
        urow, ucode = packed // uniq.size, packed % uniq.size
        dids = batch["doc_id"].to_numpy()[urow]
        cols = {
            "term": pa.array(uniq, type=pa.string()),
            "bg_part": pa.array(
                np.bincount(ucode, minlength=uniq.size), type=pa.int64()),
        }
        for i, fg_ids in enumerate(fg_sets):
            mem = _member(fg_ids, dids)
            cols[f"fg{i}_part"] = pa.array(
                np.bincount(ucode[mem], minlength=uniq.size),
                type=pa.int64())
        return pa.table(cols)

    aggs = [Sum("bg_part", alias_name="bg")]
    aggs += [Sum(f"fg{i}_part", alias_name=f"fg{i}") for i in range(nq)]
    vocab = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow", batch_size=512)
        .groupby("term")
        .aggregate(*aggs)
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    vocab = typed_pandas(vocab, {
        "term": "object", "bg": "int64",
        **{f"fg{i}": "int64" for i in range(nq)}})
    out = {"query": [], "term": [], "fg_df": [], "bg_df": [],
           "lift": [], "rank": []}
    for i, q in enumerate(queries):
        qterms = set(analyze_simple(q))
        n_fg = int(fg[q].size)
        cand = vocab[(vocab[f"fg{i}"] >= SIG_MIN_FG)
                     & ~vocab["term"].isin(qterms)].copy()
        if not len(cand) or n_fg == 0:
            continue
        cand["lift"] = np.round(
            (cand[f"fg{i}"].to_numpy() * np.float64(n_total))
            / (np.float64(n_fg) * cand["bg"].to_numpy()), 6)
        cand = cand.sort_values(["lift", "term"],
                                ascending=[False, True],
                                kind="mergesort").head(SIG_M)
        out["query"].extend([q] * len(cand))
        out["term"].extend(cand["term"].tolist())
        out["fg_df"].extend(cand[f"fg{i}"].astype("int64").tolist())
        out["bg_df"].extend(cand["bg"].astype("int64").tolist())
        out["lift"].extend(cand["lift"].tolist())
        out["rank"].extend(range(1, len(cand) + 1))
    return pa.table({
        "query": pa.array(out["query"], type=pa.string()),
        "term": pa.array(out["term"], type=pa.string()),
        "fg_df": pa.array(out["fg_df"], type=pa.int64()),
        "bg_df": pa.array(out["bg_df"], type=pa.int64()),
        "lift": pa.array(out["lift"], type=pa.float64()),
        "rank": pa.array(out["rank"], type=pa.int64()),
    })


def significant_terms_sql(queries=SIG_QUERIES, *, m: int = SIG_M,
                          min_fg: int = SIG_MIN_FG) -> str:
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = [
        "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array("
        "lower(text), '[^a-z0-9]+')) AS term FROM documents),",
        "tok AS (SELECT DISTINCT doc_id, term FROM toks "
        "WHERE term <> ''),",
        "bgdf AS (SELECT term, count(*) AS bg FROM tok GROUP BY term),",
        "nn AS (SELECT count(*) AS n FROM documents)",
    ]
    selects = []
    for qi, q in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        inlist = ", ".join(f"'{_sq(t)}'" for t in terms) or "''"
        parts.append(f""",
        fgd{qi} AS (SELECT DISTINCT doc_id FROM tok
                    WHERE term IN ({inlist})),
        nf{qi} AS (SELECT count(*) AS c FROM fgd{qi}),
        fgdf{qi} AS (
            SELECT t.term, count(*) AS fg
            FROM tok t JOIN fgd{qi} f USING (doc_id) GROUP BY t.term
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, f.term AS term,
                   f.fg AS fg_df, b.bg AS bg_df,
                   round((f.fg * nn.n) / (nf{qi}.c * b.bg), 6) AS lift,
                   row_number() OVER (
                       ORDER BY round((f.fg * nn.n) / (nf{qi}.c * b.bg), 6)
                           DESC, f.term ASC) AS rank
            FROM fgdf{qi} f
            JOIN bgdf b USING (term)
            CROSS JOIN nn CROSS JOIN nf{qi}
            WHERE f.fg >= {min_fg} AND f.term NOT IN ({inlist})
        ) WHERE rank <= {m}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")
