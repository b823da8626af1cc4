"""Static index pruning: CHAMPION LISTS (impact-ordered posting cut).

The classic top-k acceleration (Manning, Raghavan & Schütze, IIR
§7.1.3-7.1.4: "champion lists" / "fancy lists"): for every term keep
only its R highest-impact postings (here tf descending, doc_id
ascending ties) as a separate, much smaller index artifact; queries
score ONLY champion postings while keeping the UNPRUNED dictionary
statistics (df, N, avgdl) for idf — exactly how impact-ordered pruned
indexes ship global stats alongside truncated lists.  The reference's
bleve/scorch engine has no pruning; this is a beyond-reference
scale feature: at 10^12 docs the champion tier bounds per-term read
cost at O(R) regardless of df, and the full index stays behind it as
the fallback tier.

Build shape (scale-right, NO shuffle): a term's postings co-locate in
one bucket (salted hot terms: one bucket per salt shard), so the
champion artifact builds as one Ray task per bucket — each task
decodes its bucket's posting blocks across ALL segments, takes the
per-term top-R with one lexsort + run-length rank pass, and writes its
own ``bucket=N`` parquet (term-sorted, small row groups for pruned
query reads).  Salted terms produce per-shard partial top-Rs; the
query side's final top-R over the concatenated partials is EXACT
(top-R of a union == top-R of the union of per-part top-Rs), so no
cross-bucket merge is ever needed at build time.  Driver state is
O(buckets) stats rows.  The artifact is fingerprint-cached with the
same atomic tmp+rename discipline as the index itself.

Oracle: DuckDB recomputes tokenization, per-(doc, term) tf, the
champion rank window (``row_number() OVER (PARTITION BY term ORDER BY
tf DESC, doc_id)`` <= R), the UNPRUNED df/dl/N/avgdl and the BM25
algebra from raw text — the pruned-scoring semantics sit fully under
the driver's value hash.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

__all__ = [
    "bucket_postings_files",
    "bucket_postings",
    "term_buckets",
    "champion_lists_cached",
    "champion_rows_for_terms",
    "champion_topk",
    "champion_topk_sql",
    "CHAMP_R",
    "CHAMP_K",
    "CHAMP_QUERIES",
    "champion_safety",
    "champion_safety_sql",
    "SAFE_QUERIES",
    "SAFE_K",
]

CHAMP_R = 32   # champion list length per term
CHAMP_K = 10
# common terms (df >> R) so the pruning is actually load-bearing, plus
# a rare tail term (df < R: champion == full postings) and an OOV word
CHAMP_QUERIES = ("data processing pipeline", "the information",
                 "fast scan merge", "customer query zzznope")

_CHAMP_COLS = ["term", "salt", "first_doc", "n", "doc_blob", "tf_blob"]


def _flat_postings(tbl: pa.Table, idx_dir: str):
    """Posting-block rows of the index at ``idx_dir`` -> per-posting
    (term, doc_id, tf, dl) arrays through the codec's bulk block decoder;
    dl from the docs catalog (``BM25Index.doc_lengths``)."""
    from ..index.codec import decode_posting_blocks
    from .query import BM25Index

    n = tbl["n"].to_numpy().astype(np.int64)
    ids, tf = decode_posting_blocks(
        tbl["first_doc"].to_numpy(), n, tbl["doc_blob"].to_pylist(),
        tbl["tf_blob"].to_pylist())
    dl = BM25Index(idx_dir).doc_lengths(ids)
    terms = np.asarray(tbl["term"].to_pylist(), dtype=object).repeat(n)
    return terms, ids, tf.astype(np.int64), dl.astype(np.int64)


def _champion_cut(terms: np.ndarray, ids: np.ndarray, tf: np.ndarray,
                  dl: np.ndarray, r: int):
    """Vectorized per-term top-R by (tf desc, doc_id asc): one lexsort
    + run-length rank pass, no per-term Python."""
    codes, inv = np.unique(terms, return_inverse=True)
    order = np.lexsort((ids, -tf, inv))
    ti = inv[order]
    starts = np.flatnonzero(np.r_[True, ti[1:] != ti[:-1]])
    group_start = np.repeat(starts, np.diff(np.r_[starts, ti.size]))
    rank = np.arange(ti.size, dtype=np.int64) - group_start
    keep = order[rank < r]
    keep.sort()  # preserve term-major input order for stable output
    return keep, codes


def bucket_postings_files(idx_dir: str):
    """bucket -> [postings file] over the index's base and delta
    segments (``manifest.postings_files``: a file holds one bucket),
    from directory listings only — the standard prelude for any
    one-Ray-task-per-bucket derived-artifact build (champion lists,
    tiered postings, impact lists).  Also returns the parsed
    manifest."""
    import json as _json

    from ..state.manifest import postings_files

    seg_dirs = [idx_dir]
    with open(os.path.join(idx_dir, "manifest.json")) as f:
        man = _json.load(f)
    for s in man.get("segments", []):
        if s["name"] != "base":
            seg_dirs.append(os.path.join(idx_dir, "segments", s["name"]))
    per_bucket: dict[int, list[str]] = {}
    for d in seg_dirs:
        for path, b in postings_files(d):
            per_bucket.setdefault(b, []).append(path)
    return per_bucket, man


def bucket_postings(paths: list[str], columns: list[str]):
    """The ``columns`` of every block of one bucket's postings files
    (``bucket_postings_files``), or None when there are none."""
    import pyarrow.parquet as pq

    parts = [pq.ParquetFile(p).read(columns=columns, use_threads=False)
             for p in paths]
    parts = [t for t in parts if t.num_rows]
    return pa.concat_tables(parts) if parts else None


def term_buckets(manifest, terms) -> set[int]:
    """Salt-aware bucket set for a term list: unsalted terms hash to
    one bucket, salted (hot) terms to one bucket per salt shard."""
    from ..functions.hashing import fnv1a64_str

    nb = manifest.num_buckets
    salt_spec = manifest.salt_spec or {}
    buckets: set[int] = set()
    for t in terms:
        n_salts = int(salt_spec.get(t, 0))
        if n_salts:
            buckets.update(fnv1a64_str(f"{t}#{s}") % nb
                           for s in range(n_salts))
        else:
            buckets.add(fnv1a64_str(t) % nb)
    return buckets


def champion_lists_cached(sf_dir: str, *, r: int = CHAMP_R,
                          num_buckets: int = 16) -> str:
    """Build-once cached champion-list artifact over the cached simple
    index: ``<cache>/champions/bucket=N/part.parquet`` rows
    ``(term, doc_id, tf, dl)`` term-sorted, plus per-bucket
    ``stats.parquet`` rows ``(term, pruned_max_wdl)`` — the largest
    BM25 wdl among that term's PRUNED postings (0.0 when nothing was
    pruned), which is what makes the pruned tier SELF-CERTIFYING (see
    champion_safety).  One Ray task per bucket (terms co-locate);
    salted terms emit per-shard partials merged exactly at query
    time."""
    from ..functions.spill import cached_dir, index_key
    from .expand import simple_index_cached

    idx_dir = simple_index_cached(sf_dir, num_buckets=num_buckets)
    return cached_dir(
        "pdfsearch_champ", (*index_key(idx_dir), r, "champ-v2"),
        "champ_manifest.json",
        lambda out: _build_champions(idx_dir, out, r))


def _build_champions(idx_dir: str, tmp: str, r: int) -> None:
    import ray.data as rd

    # bucket -> its postings files, from directory listings
    per_bucket, man = bucket_postings_files(idx_dir)

    bm = (float(man["k1"]), float(man["b"]), float(man["avgdl"]))
    os.makedirs(tmp)

    def _one_bucket(batch: dict) -> dict:
        import pyarrow.parquet as pqw

        b = int(batch["bucket"][0])
        tbl = bucket_postings(per_bucket[b], _CHAMP_COLS)
        if tbl is None:
            return {"bucket": np.array([b]), "n_terms": np.array([0]),
                    "n_rows": np.array([0])}
        terms, ids, tf, dl = _flat_postings(tbl, idx_dir)
        keep, _codes = _champion_cut(terms, ids, tf, dl, r)
        out = pa.table({
            "term": pa.array(terms[keep].tolist(), type=pa.string()),
            "doc_id": pa.array(ids[keep].astype(np.int64)),
            "tf": pa.array(tf[keep]),
            "dl": pa.array(dl[keep]),
        }).sort_by([("term", "ascending"), ("tf", "descending"),
                    ("doc_id", "ascending")])
        bdir = os.path.join(tmp, f"bucket={b:03d}")
        os.makedirs(bdir, exist_ok=True)
        pqw.write_table(out, os.path.join(bdir, "part.parquet"),
                        row_group_size=4096)
        # per-term max BM25 wdl among the PRUNED postings (the safety
        # certificate's tail bound); 0.0 when the term kept everything
        from ..index.codec import bm25_wdl

        k1_, b_, avgdl_ = bm
        pruned = np.ones(terms.size, dtype=bool)
        pruned[keep] = False
        codes_u, inv = np.unique(terms, return_inverse=True)
        pm = np.zeros(codes_u.size)
        if pruned.any():
            wdl_p = bm25_wdl(tf[pruned].astype(np.float64),
                             dl[pruned].astype(np.float64),
                             k1_, b_, avgdl_)
            np.maximum.at(pm, inv[pruned], wdl_p)
        pqw.write_table(pa.table({
            "term": pa.array(codes_u.tolist(), type=pa.string()),
            "pruned_max_wdl": pa.array(pm, type=pa.float64()),
        }), os.path.join(bdir, "stats.parquet"), row_group_size=4096)
        n_terms = int(codes_u.size)
        return {"bucket": np.array([b]), "n_terms": np.array([n_terms]),
                "n_rows": np.array([out.num_rows])}

    stats = (
        rd.from_items([{"bucket": b} for b in sorted(per_bucket)])
        .map_batches(_one_bucket, batch_size=1, batch_format="numpy")
        .to_pandas()
    )
    with open(os.path.join(tmp, "champ_manifest.json"), "w") as f:
        json.dump({"r": r, "index_dir": idx_dir,
                   "buckets": stats.to_dict("records")}, f)


def champion_rows_for_terms(champ_dir: str, idx, terms: list[str],
                            *, r: int = CHAMP_R):
    """term -> (doc_ids, tf, dl) champion rows, bucket-pruned reads +
    an exact final top-R merge over any salted per-shard partials."""
    import pyarrow.parquet as pq

    buckets = term_buckets(idx.manifest, terms)
    parts = []
    for b in sorted(buckets):
        p = os.path.join(champ_dir, f"bucket={b:03d}", "part.parquet")
        if os.path.isfile(p):
            parts.append(pq.read_table(p))
    out: dict[str, tuple] = {}
    if not parts:
        return out
    import pyarrow.compute as pc

    tbl = pa.concat_tables(parts)
    tbl = tbl.filter(pc.is_in(tbl["term"], value_set=pa.array(terms)))
    t_arr = np.asarray(tbl["term"].to_pylist(), dtype=object)
    ids = tbl["doc_id"].to_numpy()
    tf = tbl["tf"].to_numpy()
    dl = tbl["dl"].to_numpy()
    keep, _ = _champion_cut(t_arr, ids.astype(np.uint64), tf, dl, r)
    for t in terms:
        m = t_arr[keep] == t
        sel = keep[m]
        out[t] = (ids[sel], tf[sel], dl[sel])
    return out


def champion_topk(sf_dir: str) -> pa.Table:
    """Champion-list pruned top-k gate: per query term only the R
    highest-tf postings score (doc_id-asc ties), idf/N/avgdl stay the
    UNPRUNED dictionary stats — the impact-ordered pruned-tier
    semantics, end to end under the value hash."""
    from ..analysis.analyzer import analyze_simple
    from ..functions.tables import ranked_table, topk_rows
    from ..index.codec import aggregate_scores, bm25_wdl
    from .expand import simple_index_cached
    from .query import BM25Index

    idx = BM25Index(simple_index_cached(sf_dir))
    champ = champion_lists_cached(sf_dir)
    m = idx.manifest
    ranked = []
    for q in sorted(CHAMP_QUERIES):
        terms = sorted(set(analyze_simple(q)))
        rows = champion_rows_for_terms(champ, idx, terms)
        # UNPRUNED df for idf: the dictionary (term, n) metadata read —
        # at scale the pruned tier ships df alongside its lists
        posts = idx.postings(terms)
        all_ids, all_sc = [], []
        for t in terms:
            ids, tf, dl = rows.get(t, (np.empty(0, dtype=np.int64),) * 3)
            if not len(ids):
                continue
            idf = posts[t].idf
            all_ids.append(ids.astype(np.int64))
            all_sc.append(idf * bm25_wdl(
                tf.astype(np.float64), dl.astype(np.float64),
                m.k1, m.b, m.avgdl))
        if not all_ids:
            continue
        uniq, agg = aggregate_scores(np.concatenate(all_ids),
                                     np.concatenate(all_sc))
        ranked.extend(topk_rows(q, uniq, agg, CHAMP_K))
    return ranked_table(ranked)


def champion_topk_sql(queries=CHAMP_QUERIES, *, r: int = CHAMP_R,
                      k: int = CHAMP_K, k1: float = 1.2,
                      b: float = 0.75) -> str:
    """Oracle: full BM25 chain with the champion rank window — only
    rows with ``row_number() OVER (PARTITION BY term ORDER BY tf DESC,
    doc_id) <= R`` score; df/dl/N/avgdl stay unpruned."""
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
        champ{qi} AS (
            SELECT * FROM (
                SELECT doc_id, term, tf,
                       row_number() OVER (
                           PARTITION BY term
                           ORDER BY tf DESC, doc_id ASC) AS rr
                FROM tfs{qi}
            ) WHERE rr <= {r}
        ),
        sc{qi} AS (
            SELECT c.doc_id,
                   sum(ln(1 + (stats.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                       * c.tf / (c.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                   ) AS s
            FROM champ{qi} c
            CROSS JOIN stats
            JOIN dfs{qi} ON c.term = dfs{qi}.term
            JOIN dl ON c.doc_id = dl.doc_id
            GROUP BY c.doc_id
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


# ------------------------------------------------- safe-pruning certificate

SAFE_QUERIES = ("data processing pipeline", "the information",
                "fast scan merge", "quantile histogram", "dup")
SAFE_K = 10


def champion_safety(sf_dir: str) -> pa.Table:
    """Self-certifying pruned search (the Fagin/TA upper-bound idea
    applied to champion lists): per query, decide from the pruned tier
    ALONE whether its top-K is provably the exact top-K.

    Sound test (set-exactness up to rounded-score ties): with
    pmw_t = max BM25 wdl among term t's pruned postings and
    B = Σ_t idf_t·pmw_t,

    * a doc OUTSIDE the candidate set scores ≤ B;
    * a candidate d missing from some champion lists scores ≤
      computed(d) + miss(d), miss(d) = B − Σ_{t: d ∈ champ_t} idf_t·pmw_t;

    so if round(B,6) ≤ θ and every outside-top-K candidate's rounded
    upper bound ≤ θ (θ = the K-th rounded computed score), no unseen or
    under-scored doc can displace the top-K set.  Rare-term queries
    (df ≤ R: nothing pruned, B = 0) certify trivially; head-term
    queries typically do not — both cases are in the fixed query set
    and the certificate itself sits under the value hash.

    Output: one row per query — theta, tail bound B, the worst outside
    upper bound, the certificate bit, and the candidate count."""
    from ..analysis.analyzer import analyze_simple
    from ..index.codec import bm25_wdl
    from .expand import simple_index_cached
    from .query import BM25Index

    import pyarrow.parquet as pq

    idx = BM25Index(simple_index_cached(sf_dir))
    champ = champion_lists_cached(sf_dir)
    m = idx.manifest
    rows = []
    for q in sorted(SAFE_QUERIES):
        terms = sorted(set(analyze_simple(q)))
        crows = champion_rows_for_terms(champ, idx, terms)
        posts = idx.postings(terms)
        # per-term pruned-max bound: build-side stats, plus any rows a
        # salted-partial merge cut at query time (none when unsalted)
        pmw: dict[str, float] = {}
        buckets = term_buckets(m, terms)
        stats_parts = []
        for bkt in sorted(buckets):
            p = os.path.join(champ, f"bucket={bkt:03d}", "stats.parquet")
            if os.path.isfile(p):
                stats_parts.append(pq.read_table(p))
        if stats_parts:
            st = pa.concat_tables(stats_parts)
            st_terms = np.asarray(st["term"].to_pylist(), dtype=object)
            st_pm = st["pruned_max_wdl"].to_numpy()
            for t in terms:
                sel = st_terms == t
                pmw[t] = float(st_pm[sel].max()) if sel.any() else 0.0
        idfs = {t: posts[t].idf for t in terms}
        B = sum(idfs[t] * pmw.get(t, 0.0) for t in terms)
        # candidate scores + per-candidate champion membership mass
        all_ids, all_sc, all_cov = [], [], []
        for t in terms:
            ids, tf, dl = crows.get(t, (np.empty(0, dtype=np.int64),) * 3)
            if not len(ids):
                continue
            all_ids.append(ids.astype(np.int64))
            all_sc.append(idfs[t] * bm25_wdl(
                tf.astype(np.float64), dl.astype(np.float64),
                m.k1, m.b, m.avgdl))
            all_cov.append(np.full(len(ids), idfs[t] * pmw.get(t, 0.0)))
        if not all_ids:
            rows.append((q, 0.0, round(B, 6), 0.0,
                         1 if round(B, 6) <= 0.0 else 0, 0))
            continue
        ids = np.concatenate(all_ids)
        sc = np.concatenate(all_sc)
        cov = np.concatenate(all_cov)
        uniq, inv = np.unique(ids, return_inverse=True)
        agg = np.zeros(uniq.size)
        np.add.at(agg, inv, sc)
        covered = np.zeros(uniq.size)
        np.add.at(covered, inv, cov)
        agg6 = np.round(agg, 6)
        order = np.lexsort((uniq, -agg6))
        kth = min(SAFE_K, uniq.size) - 1
        theta = float(agg6[order[kth]])
        outside = order[SAFE_K:]
        ub6 = np.round(agg[outside] + (B - covered[outside]), 6)
        max_out = float(ub6.max()) if outside.size else 0.0
        safe = int(round(B, 6) <= theta
                   and (outside.size == 0 or max_out <= theta))
        rows.append((q, theta, round(B, 6), max_out, safe,
                     int(uniq.size)))
    return pa.table({
        "query": pa.array([r[0] for r in rows], type=pa.string()),
        "theta": pa.array([r[1] for r in rows], type=pa.float64()),
        "tail_bound": pa.array([r[2] for r in rows], type=pa.float64()),
        "max_outside_ub": pa.array([r[3] for r in rows],
                                   type=pa.float64()),
        "safe": pa.array([r[4] for r in rows], type=pa.int64()),
        "n_candidates": pa.array([r[5] for r in rows], type=pa.int64()),
    })


def champion_safety_sql(queries=SAFE_QUERIES, *, r: int = CHAMP_R,
                        k: int = SAFE_K, k1: float = 1.2,
                        b: float = 0.75) -> str:
    """Oracle: DuckDB recomputes champion windows, per-term pruned-max
    wdl, idf, the tail bound, per-candidate coverage, θ, the outside
    upper bounds and the certificate bit from raw text."""
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
        idfs{qi} AS (
            SELECT term,
                   ln(1 + (stats.n - df + 0.5) / (df + 0.5)) AS idf
            FROM dfs{qi} CROSS JOIN stats
        ),
        rk{qi} AS (
            SELECT f.doc_id, f.term, f.tf,
                   f.tf / (f.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                       AS wdl,
                   row_number() OVER (
                       PARTITION BY f.term
                       ORDER BY f.tf DESC, f.doc_id ASC) AS rr
            FROM tfs{qi} f
            CROSS JOIN stats
            JOIN dl ON f.doc_id = dl.doc_id
        ),
        pmw{qi} AS (
            SELECT i.term,
                   coalesce(max(CASE WHEN rk.rr > {r} THEN rk.wdl END), 0)
                       AS pmw
            FROM idfs{qi} i LEFT JOIN rk{qi} rk ON i.term = rk.term
            GROUP BY i.term
        ),
        bb{qi} AS (
            SELECT coalesce(sum(i.idf * p.pmw), 0) AS tail
            FROM idfs{qi} i JOIN pmw{qi} p ON i.term = p.term
        ),
        contrib{qi} AS (
            SELECT rk.doc_id, rk.term, i.idf * rk.wdl AS c,
                   i.idf * p.pmw AS cov
            FROM rk{qi} rk
            JOIN idfs{qi} i ON rk.term = i.term
            JOIN pmw{qi} p ON rk.term = p.term
            WHERE rk.rr <= {r}
        ),
        sc{qi} AS (
            SELECT doc_id, sum(c) AS s, sum(cov) AS covered
            FROM contrib{qi} GROUP BY doc_id
        ),
        ranked{qi} AS (
            SELECT doc_id, s, covered, round(s, 6) AS s6,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ),
        th{qi} AS (
            SELECT coalesce(min(s6), 0) AS theta,
                   (SELECT count(*) FROM ranked{qi}) AS n_cand
            FROM ranked{qi} WHERE rank <= {k}
        ),
        outs{qi} AS (
            SELECT coalesce(max(round(
                       rk.s + (bb{qi}.tail - rk.covered), 6)), 0)
                       AS max_ub
            FROM ranked{qi} rk CROSS JOIN bb{qi}
            WHERE rk.rank > {k}
        )""")
        selects.append(f"""
        SELECT '{_sq(q)}' AS query,
               th{qi}.theta AS theta,
               round(bb{qi}.tail, 6) AS tail_bound,
               outs{qi}.max_ub AS max_outside_ub,
               CAST(CASE WHEN round(bb{qi}.tail, 6) <= th{qi}.theta
                          AND outs{qi}.max_ub <= th{qi}.theta
                    THEN 1 ELSE 0 END AS BIGINT) AS safe,
               CAST(th{qi}.n_cand AS BIGINT) AS n_candidates
        FROM th{qi} CROSS JOIN bb{qi} CROSS JOIN outs{qi}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query")
