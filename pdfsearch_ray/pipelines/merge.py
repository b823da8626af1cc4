"""Index merge: combine independently-built indexes into one by segment
adoption — the Lucene/scorch ``IndexWriter.addIndexes`` analog and the
multi-crawl consolidation step of a web-scale corpus (build shards
near the data, merge the shard indexes into the serving index).

The reference has no multi-index merge (one bleve index per corpus,
bleve_glue.go:16-29); this is the capability a user hits the moment
builds are sharded.  Because this engine's postings store RAW tf/dl
(avgdl enters only at decode — see append_index, build.py:1348) and
idf is computed query-side from manifest-global N and per-term df
summed across segments, a merge needs NO re-tokenization and NO
posting rewrite: adopt every source segment as-is, union the corpus
statistics, and exact TAAT over the merged index is bitwise-identical
to a from-scratch build over the union corpus (same N, df, dl, avgdl
⇒ same idf and wdl) — the property the driver gate's full-corpus SQL
oracle hashes.

Block-max metadata was baked under each source's own avgdl; each
adopted segment keeps its source ``avgdl_baked`` and the query engine
scales bounds by ``max(1, avgdl_now / avgdl_baked)`` (the established
append-path envelope), so MaxScore pruning stays sound after merge.

Mechanics and scale shape:

* ``mode="link"`` (default) hard-links every docs/postings parquet
  file into the output (copy fallback across filesystems): O(files)
  metadata ops, zero data movement, self-contained result.
* ``mode="ref"`` symlinks the segment DIRECTORIES: O(segments) ops,
  zero copies — the sharded-build fast path when sources stay put.
* Config compatibility is enforced (analyzer/version, k1, b,
  num_buckets, block_size, positions, salt_spec): postings bucketing
  and salting are layout decisions the query side reads from ONE
  manifest, so mismatched sources must be rebuilt, not merged.
* doc_id disjointness across sources is audited with the narrow
  bucket-spill duplicate check (only the 8-byte id column moves,
  build.duplicate_doc_ids) BEFORE the manifest commit — a colliding
  merge is refused, never half-committed.
* The manifest save is the atomic commit point (append_index rule):
  an output dir without a manifest is invisible garbage, so a failed
  merge can simply be re-run.
* Tombstones carry over file-by-file with source-prefixed names;
  doc_id spaces are disjoint so the union is exact.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import numpy as np

__all__ = ["merge_indexes", "MergeCompatibilityError",
           "merged_index_cached", "merged_index_topk", "merged_index_sql",
           "MERGE_QUERIES", "MERGE_K",
           "compacted_index_cached", "compacted_index_topk",
           "compacted_index_sql", "COMPACT_QUERIES", "COMPACT_K",
           "COMPACT_MOD", "COMPACT_RESIDUE",
           "parity_half_indexes_cached", "federated_score_terms",
           "federated_topk", "federated_topk_sql",
           "mod_shard_indexes_cached", "select_shards",
           "shard_selected_topk", "shard_selected_sql",
           "N_SEL_SHARDS", "SHARD_SEL", "SHARD_SEL_QUERIES", "SHARD_SEL_K",
           "lang_index_cached", "routed_lang_topk", "routed_lang_sql",
           "ROUTED_QUERIES", "ROUTED_K"]

_CONFIG_KEYS = ("analyzer", "analyzer_version", "k1", "b", "num_buckets",
                "block_size", "with_positions", "salt_spec")


class MergeCompatibilityError(RuntimeError):
    """Sources disagree on an index-layout parameter the query engine
    reads from the single merged manifest."""


def _source_segments(src: str, m) -> list[tuple[str, str, int, int, float]]:
    """(name, dir, n_docs, total_dl, avgdl_baked) for every committed
    segment of one source index, base included."""
    total_dl = int(m.total_dl) if m.total_dl else int(round(m.avgdl * m.n_docs))
    if not m.segments:
        return [("base", src, m.n_docs, total_dl, float(m.avgdl))]
    out = []
    for s in m.segments:
        d = src if s["name"] == "base" else f"{src}/segments/{s['name']}"
        out.append((s["name"], d, int(s["n_docs"]), int(s["total_dl"]),
                    float(s["avgdl_baked"])))
    return out


def _adopt(seg_dir: str, dst_dir: str, mode: str) -> None:
    """Materialize one source segment at ``dst_dir``."""
    if mode == "ref":
        os.makedirs(os.path.dirname(dst_dir), exist_ok=True)
        os.symlink(os.path.abspath(seg_dir), dst_dir)
        return
    for sub in ("docs", "postings"):
        sdir = f"{seg_dir}/{sub}"
        if not os.path.isdir(sdir):
            continue
        ddir = f"{dst_dir}/{sub}"
        os.makedirs(ddir, exist_ok=True)
        for f in sorted(glob.glob(f"{sdir}/*.parquet")):
            dst = f"{ddir}/{os.path.basename(f)}"
            try:
                os.link(f, dst)
            except OSError:
                shutil.copy2(f, dst)


def merge_indexes(
    sources: list[str],
    out_dir: str,
    *,
    mode: str = "link",
    audit_unique: bool = True,
    report=None,
) -> "IndexManifest":
    """Merge the committed indexes at ``sources`` into a new index at
    ``out_dir``; returns the merged manifest.  See module docstring."""
    from ..state.manifest import IndexManifest
    from .build import (
        BuildConsistencyError,
        _committed_doc_files,
        duplicate_doc_ids,
    )

    if mode not in ("link", "ref"):
        raise ValueError(f"unknown merge mode {mode!r}")
    if len(sources) < 2:
        raise ValueError("merge_indexes needs at least two sources")
    if os.path.isfile(os.path.join(out_dir, "manifest.json")):
        raise FileExistsError(f"{out_dir} already holds a committed index")
    t0 = time.time()
    report = report or (lambda msg: None)

    manifests = [IndexManifest.load(s) for s in sources]
    for s, m in zip(sources, manifests):
        m.check_format(s)
    ref = manifests[0]
    for s, m in zip(sources[1:], manifests[1:]):
        for k in _CONFIG_KEYS:
            if getattr(m, k) != getattr(ref, k):
                raise MergeCompatibilityError(
                    f"{s}: {k}={getattr(m, k)!r} != "
                    f"{sources[0]}'s {getattr(ref, k)!r}")

    # disjointness audit first — never commit a colliding merge.  The
    # union read is the narrow doc_id column only.
    if audit_unique:
        import ray.data as rd

        files = [f for s, m in zip(sources, manifests)
                 for f in _committed_doc_files(s, m)]
        # all-empty sources have no catalog files (and cannot collide)
        dups = duplicate_doc_ids(
            rd.read_parquet(files, columns=["doc_id"])) if files \
            else np.array([], dtype=np.int64)
        if dups.size:
            raise BuildConsistencyError(
                f"merge would collide on {dups.size} doc_id(s); "
                f"first few: {dups[:5].tolist()}")

    # adopt segments: source 0's base becomes the merged base; every
    # other segment lands under segments/m<i>-<name>
    segments: list[dict] = []
    for i, (src, m) in enumerate(zip(sources, manifests)):
        for name, seg_dir, n_docs, total_dl, baked in _source_segments(src, m):
            if i == 0 and name == "base":
                new_name, dst = "base", out_dir
                if mode == "ref":
                    # the merged ROOT must hold the manifest, so base
                    # subdirs are symlinked individually
                    os.makedirs(out_dir, exist_ok=True)
                    for sub in ("docs", "postings"):
                        if os.path.isdir(f"{seg_dir}/{sub}"):
                            os.symlink(os.path.abspath(f"{seg_dir}/{sub}"),
                                       f"{out_dir}/{sub}")
                else:
                    _adopt(seg_dir, dst, mode)
            else:
                new_name = f"m{i:03d}-{name}"
                dst = f"{out_dir}/segments/{new_name}"
                _adopt(seg_dir, dst, mode)
            segments.append({"name": new_name, "n_docs": n_docs,
                             "total_dl": total_dl, "avgdl_baked": baked})
            report(f"merge: adopted {src}:{name} as {new_name} "
                   f"({n_docs} docs)")

    # tombstones: carry over with source-prefixed names
    tombstones: list[str] = []
    for i, (src, m) in enumerate(zip(sources, manifests)):
        for f in m.tombstones:
            new_f = f"m{i:03d}-{f}"
            os.makedirs(f"{out_dir}/tombstones", exist_ok=True)
            shutil.copy2(f"{src}/tombstones/{f}",
                         f"{out_dir}/tombstones/{new_f}")
            tombstones.append(new_f)

    n_docs = sum(s["n_docs"] for s in segments)
    total_dl = sum(s["total_dl"] for s in segments)
    merged = IndexManifest(
        n_docs=n_docs,
        avgdl=total_dl / max(n_docs, 1),
        total_tokens=total_dl,
        analyzer=ref.analyzer,
        analyzer_version=ref.analyzer_version,
        k1=ref.k1,
        b=ref.b,
        num_buckets=ref.num_buckets,
        block_size=ref.block_size,
        salt_spec=dict(ref.salt_spec or {}),
        built_at=time.time(),
        avgdl_exact=all(m.avgdl_exact for m in manifests),
        total_dl=total_dl,
        with_positions=ref.with_positions,
        segments=segments,
        tombstones=tombstones,
        build_metrics={
            "merged_from": [os.path.abspath(s) for s in sources],
            "merge_mode": mode,
            "merge_sec": round(time.time() - t0, 3),
            "hash_provenance": ref.build_metrics.get(
                "hash_provenance", "unknown"),
            "store_text": all(m.build_metrics.get("store_text", True)
                              for m in manifests),
        },
    )
    merged.save(out_dir)  # atomic commit
    return merged


# ------------------------------------------------------------------ gate

# OR-of-terms BM25 queries answered through a MERGED index built from
# two independent half-corpus builds (doc_id parity split); exhaustive
# scoring, so ranks are tie-complete by construction.
MERGE_QUERIES = ("data processing", "fast scan merge",
                 "customer table window", "slow vector join")
MERGE_K = 10


def merged_index_cached(sf_dir: str, *, num_buckets: int = 16) -> str:
    """Build-once cached MERGED index over ``sf_dir``'s documents: the
    two cached doc_id-parity half-indexes (parity_half_indexes_cached —
    shared with the federated gate, so the halves build ONCE for both),
    hard-link merged (mode='link').  Fingerprint-keyed on source
    identity + params, committed atomically by ``spill.cached_dir``, so
    the gate's marginal cost after the first call is a manifest read."""
    from ..functions.spill import cached_dir, file_key

    def build(out: str) -> None:
        halves = parity_half_indexes_cached(sf_dir, num_buckets=num_buckets)
        merge_indexes(list(halves), out, mode="link")

    return cached_dir(
        "pdfsearch_ftidx",
        (*file_key(f"{sf_dir}/documents.parquet"), "merged-parity",
         num_buckets),
        "manifest.json", build)


def merged_index_topk(sf_dir: str):
    """Driver gate: exhaustive OR-of-terms BM25 top-k answered through
    the merged two-half index.  The oracle is the FULL-corpus BM25 SQL
    chain — so segment adoption, cross-segment df summation and the
    merged global stats are all under the value hash (a wrong merged N,
    df or avgdl shifts every score)."""
    import numpy as np
    import pyarrow as pa

    from ..analysis.analyzer import analyze_simple
    from .query import BM25Index

    idx = BM25Index(merged_index_cached(sf_dir))
    out_q, out_d, out_s = [], [], []
    for q in sorted(MERGE_QUERIES):
        ids, sc = idx.score_terms(sorted(set(analyze_simple(q))))
        if not ids.size:
            continue
        sc = np.round(sc, 6)
        order = np.lexsort((ids.astype(np.int64), -sc))[:MERGE_K]
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


def merged_index_sql() -> str:
    """Full-corpus BM25 oracle for the merged-index gate."""
    from .oracles import fulltext_simple_sql

    return fulltext_simple_sql(sorted(MERGE_QUERIES), k=MERGE_K)


# ------------------------------------------------- delete -> compact gate

COMPACT_QUERIES = ("data processing pipeline", "stream window merge",
                   "information", "customer query")
COMPACT_K = 10
# deterministic delete predicate: doc_id % COMPACT_MOD == COMPACT_RESIDUE
COMPACT_MOD = 7
COMPACT_RESIDUE = 3


def compacted_index_cached(sf_dir: str, *, num_buckets: int = 16) -> str:
    """Build-once cached DELETE→COMPACT index over ``sf_dir``'s
    documents: fresh simple-analyzer build, tombstone every doc with
    ``doc_id % COMPACT_MOD == COMPACT_RESIDUE`` (delete_docs — the
    Lucene lazy-delete analog), then compact_index (the scorch
    segment-merge / forceMerge-with-expungeDeletes analog) so the
    tombstoned rows are physically dropped and N/df/avgdl are
    recomputed over the survivors.  Fingerprint-keyed + atomic rename,
    the simple_index_cached discipline.

    At scale the delete side is a delete-by-query stream (ids arrive
    from a filter pipeline, tombstones append per shard); here the id
    list is read from the source parquet's id column — O(deleted)
    driver state, the same shape delete_docs commits."""
    import pyarrow.parquet as pq

    from ..functions.spill import cached_dir, file_key
    from .build import build_index, compact_index, delete_docs

    src = f"{sf_dir}/documents.parquet"

    def build(out: str) -> None:
        build_index(src, out, analyzer="simple", lang_col="lang",
                    num_buckets=num_buckets, sample_rate=1.0)
        ids = pq.read_table(src, columns=["doc_id"])["doc_id"].to_numpy()
        delete_docs(out, doc_ids=ids[ids % COMPACT_MOD
                                     == COMPACT_RESIDUE].tolist())
        compact_index(out)

    return cached_dir(
        "pdfsearch_ftidx",
        (*file_key(src), "compacted", num_buckets, COMPACT_MOD,
         COMPACT_RESIDUE),
        "manifest.json", build)


def compacted_index_topk(sf_dir: str):
    """Driver gate: exhaustive BM25 top-k through the
    delete→compact→query lifecycle.  The oracle is the BM25 chain over
    ONLY the surviving rows — so the tombstone algebra, the physical
    purge and the recomputed corpus stats (a stale pre-delete N, df or
    avgdl shifts every score) all sit under the value hash."""
    import numpy as np
    import pyarrow as pa

    from ..analysis.analyzer import analyze_simple
    from .query import BM25Index

    idx = BM25Index(compacted_index_cached(sf_dir))
    out_q, out_d, out_s = [], [], []
    for q in sorted(COMPACT_QUERIES):
        ids, sc = idx.score_terms(sorted(set(analyze_simple(q))))
        if not ids.size:
            continue
        sc = np.round(sc, 6)
        order = np.lexsort((ids.astype(np.int64), -sc))[:COMPACT_K]
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


def compacted_index_sql() -> str:
    """Survivors-only BM25 oracle for the compaction gate."""
    from .oracles import fulltext_simple_sql

    return fulltext_simple_sql(
        sorted(COMPACT_QUERIES), k=COMPACT_K,
        where=f"doc_id % {COMPACT_MOD} <> {COMPACT_RESIDUE}")


# ------------------------------------------------ federated (no-merge) query

def parity_half_indexes_cached(sf_dir: str, *,
                               num_buckets: int = 16) -> tuple[str, str]:
    """Two independently-built simple-analyzer indexes over the doc_id
    parity halves, each its own fingerprint-cached artifact — the
    sharded-crawl fixture for merge AND federated query gates."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.spill import cached_dir, file_key
    from ..functions.tables import read_parquet_nometa
    from .build import build_index

    src = f"{sf_dir}/documents.parquet"

    def build(out: str, parity: int) -> None:
        def _half(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(
                pc.bit_wise_and(t["doc_id"], 1), parity))
        ds = read_parquet_nometa(
            src, columns=["doc_id", "text", "lang"],
        ).map_batches(_half, batch_format="pyarrow")
        build_index(ds, out, analyzer="simple", lang_col="lang",
                    num_buckets=num_buckets, sample_rate=1.0)

    d0, d1 = (cached_dir(
        "pdfsearch_ftidx",
        (*file_key(src), "parity-half", parity, num_buckets),
        "manifest.json", lambda out, p=parity: build(out, p))
        for parity in (0, 1))
    return d0, d1


def federated_score_terms(handles, terms, selected=None):
    """Disjunctive BM25 over SEVERAL independent indexes with GLOBAL
    statistics — federated search without a merge job (the distributed
    ``df`` problem every scatter-gather engine must solve: Lucene/ES
    use the same correction for cross-shard scoring).

    Global N / total_dl come from the manifests; per-term global df is
    the sum of per-index dfs (each handle's ``postings`` df).  With
    ``selected`` (handle positions), only those handles' postings are
    scored — a broker's resource selection — while the statistics stay
    global over every handle.
    Contributions are recomputed from the raw (ids, tf, dl) as
    ``idf_global · bm25_wdl(tf, dl, k1, b, avgdl_global)`` — identical
    algebra to a merged or from-scratch build over the union corpus,
    which is exactly what the SQL oracle hashes.
    """
    import numpy as np

    from ..index.codec import aggregate_scores, bm25_idf, bm25_wdl

    n_total = sum(h.manifest.n_docs for h in handles)
    total_dl = sum(h.manifest.total_dl for h in handles)
    k1 = handles[0].manifest.k1
    b = handles[0].manifest.b
    for h in handles[1:]:
        if (h.manifest.k1, h.manifest.b) != (k1, b):
            raise MergeCompatibilityError("k1/b mismatch across handles")
    if n_total == 0:
        return np.empty(0, np.int64), np.empty(0)
    avgdl = total_dl / n_total
    posts = [h.postings(terms) for h in handles]
    ids_parts, sc_parts = [], []
    for t in terms:
        df = sum(p[t].df for p in posts)
        if df == 0:
            continue
        idf = float(bm25_idf(n_total, df))
        for i, (h, p) in enumerate(zip(handles, posts)):
            if selected is not None and i not in selected:
                continue
            live = h.live_mask(p[t].ids)
            ids_parts.append(p[t].ids[live].astype(np.int64))
            sc_parts.append(idf * bm25_wdl(p[t].tf[live], p[t].dl[live],
                                           k1, b, avgdl))
    if not ids_parts:
        return np.empty(0, np.int64), np.empty(0)
    return aggregate_scores(np.concatenate(ids_parts),
                            np.concatenate(sc_parts))


def federated_topk(sf_dir: str):
    """Driver gate: the MERGE_QUERIES set answered ACROSS the two
    parity-half indexes with zero data movement — the oracle is the
    same full-corpus BM25 chain as the merged gate, so a wrong global
    N, summed df, or union avgdl flips the hash exactly as a bad merge
    would."""
    import numpy as np
    import pyarrow as pa

    from ..analysis.analyzer import analyze_simple
    from .query import BM25Index

    d0, d1 = parity_half_indexes_cached(sf_dir)
    handles = [BM25Index(d0), BM25Index(d1)]
    out_q, out_d, out_s = [], [], []
    for q in sorted(MERGE_QUERIES):
        ids, sc = federated_score_terms(
            handles, sorted(set(analyze_simple(q))))
        if not ids.size:
            continue
        sc = np.round(sc, 6)
        order = np.lexsort((ids, -sc))[:MERGE_K]
        out_q.extend([q] * order.size)
        out_d.extend(ids[order].tolist())
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


def federated_topk_sql() -> str:
    """Full-corpus BM25 oracle — federated == merged == from-scratch."""
    from .oracles import fulltext_simple_sql

    return fulltext_simple_sql(sorted(MERGE_QUERIES), k=MERGE_K)


# -------------------------------------- shard selection (resource selection)

N_SEL_SHARDS = 4          # shard by doc_id % 4
SHARD_SEL = 2             # broker searches only the top-2 shards
SHARD_SEL_QUERIES = ("data processing pipeline", "fast scan",
                     "customer information")
SHARD_SEL_K = 10


def mod_shard_indexes_cached(sf_dir: str, *, n_shards: int = N_SEL_SHARDS,
                             num_buckets: int = 16) -> list[str]:
    """n independently-built simple-analyzer indexes over the
    ``doc_id % n_shards`` split — the multi-shard fixture for the
    resource-selection gate (the parity-halves pattern, generalized).
    Each shard is its own fingerprint-cached artifact."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.spill import cached_dir, file_key
    from ..functions.tables import read_parquet_nometa
    from .build import build_index

    src = f"{sf_dir}/documents.parquet"

    def build(out: str, s: int) -> None:
        def _shard(t: pa.Table) -> pa.Table:
            m = pc.equal(pc.cast(
                pc.subtract(t["doc_id"],
                            pc.multiply(pc.divide(t["doc_id"], n_shards),
                                        n_shards)),
                pa.int64()), s)
            return t.filter(m)
        ds = read_parquet_nometa(
            src, columns=["doc_id", "text", "lang"],
        ).map_batches(_shard, batch_format="pyarrow")
        build_index(ds, out, analyzer="simple", lang_col="lang",
                    num_buckets=num_buckets, sample_rate=1.0)

    return [cached_dir(
        "pdfsearch_ftidx",
        (*file_key(src), "mod-shard", n_shards, s, num_buckets),
        "manifest.json", lambda out, s=s: build(out, s))
        for s in range(n_shards)]


def select_shards(handles, terms, *, n_select: int = SHARD_SEL):
    """df-based resource selection (the CORI/Taily belief simplified to
    its integer-exact core, Callan 1995 / Aly et al. 2013): rank shards
    by Σ_t df_s(t) descending (shard-id ascending ties) and return the
    top ``n_select`` shard indexes.  At scale the per-shard term df is
    a precomputed broker-side statistic — here it is the dictionary
    (term, n) metadata each handle already serves."""
    scores = [(sum(p.df for p in h.postings(terms).values()), s)
              for s, h in enumerate(handles)]
    ranked = sorted(scores, key=lambda p: (-p[0], p[1]))
    return sorted(s for total, s in ranked[:n_select] if total >= 0)


def shard_selected_topk(sf_dir: str):
    """Resource-selection gate: the broker ranks the 4 doc_id%4 shard
    indexes by summed query-term df, searches ONLY the top-2, and
    scores them with GLOBAL corpus statistics (N / total_dl / df summed
    over ALL shard manifests+dictionaries — what a real broker caches).
    Both the selection decision (the ``shards`` column) and the pruned
    ranking sit under the value hash.  Selection changes recall, not
    the scoring algebra: a doc in an unselected shard is simply absent,
    exactly like ES ``_search`` with a shard preference routing."""
    import numpy as np
    import pyarrow as pa

    from ..analysis.analyzer import analyze_simple
    from .query import BM25Index

    handles = [BM25Index(d) for d in mod_shard_indexes_cached(sf_dir)]
    out_q, out_sh, out_d, out_s = [], [], [], []
    for q in sorted(SHARD_SEL_QUERIES):
        terms = sorted(set(analyze_simple(q)))
        sel = select_shards(handles, terms)
        sh_str = ",".join(str(s) for s in sel)
        uniq, sums = federated_score_terms(handles, terms, selected=sel)
        if not uniq.size:
            continue
        sums = np.round(sums, 6)
        order = np.lexsort((uniq, -sums))[:SHARD_SEL_K]
        out_q.extend([q] * order.size)
        out_sh.extend([sh_str] * order.size)
        out_d.extend(uniq[order].tolist())
        out_s.extend(sums[order].tolist())
    ranks: list[int] = []
    prev = None
    for q in out_q:
        ranks.append(1 if q != prev else ranks[-1] + 1)
        prev = q
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "shards": pa.array(out_sh, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(ranks, type=pa.int64()),
    })


def shard_selected_sql(queries=SHARD_SEL_QUERIES, *,
                       n_shards: int = N_SEL_SHARDS,
                       n_select: int = SHARD_SEL, k: int = SHARD_SEL_K,
                       k1: float = 1.2, b: float = 0.75) -> str:
    """Oracle: DuckDB recomputes the doc_id%n shard split, per-shard
    summed df, the (df desc, shard asc) selection window, the selected
    shard-id string AND the global-stats BM25 over only the selected
    shards' documents."""
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
        ssel{qi} AS (
            SELECT doc_id % {n_shards} AS shard, count(*) AS df_sum
            FROM tfs{qi} GROUP BY 1
        ),
        sel{qi} AS (
            SELECT shard FROM (
                SELECT shard, row_number() OVER (
                    ORDER BY df_sum DESC, shard ASC) AS rr
                FROM ssel{qi}
            ) WHERE rr <= {n_select}
        ),
        shstr{qi} AS (
            SELECT string_agg(CAST(shard AS VARCHAR), ','
                              ORDER BY shard) AS shards
            FROM sel{qi}
        ),
        sc{qi} AS (
            SELECT tfs{qi}.doc_id,
                   sum(ln(1 + (stats.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                       * tfs{qi}.tf / (tfs{qi}.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl))
                   ) AS s
            FROM tfs{qi}
            CROSS JOIN stats
            JOIN dfs{qi} ON tfs{qi}.term = dfs{qi}.term
            JOIN dl ON tfs{qi}.doc_id = dl.doc_id
            WHERE tfs{qi}.doc_id % {n_shards} IN (SELECT shard FROM sel{qi})
            GROUP BY tfs{qi}.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, shstr{qi}.shards AS shards,
                   doc_id, round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi} CROSS JOIN shstr{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, rank")


# --------------------------------------- partition routing (per-lang index)

ROUTED_QUERIES = (("data processing pipeline", "en"),
                  ("fast scan merge", "fr"),
                  ("customer query", "de"),
                  ("table window", "zh"))
ROUTED_K = 10


def lang_index_cached(sf_dir: str, lang: str, *,
                      num_buckets: int = 16) -> str:
    """One simple-analyzer index over ONLY the given language's docs —
    the per-partition index of a lang-routed deployment (each tenant /
    partition owns its index and ITS OWN statistics).  Fingerprint-
    cached like every other index artifact."""
    import pyarrow.compute as pc

    from ..functions.spill import cached_dir, file_key
    from ..functions.tables import read_parquet_nometa
    from .build import build_index

    src = f"{sf_dir}/documents.parquet"

    def build(out: str) -> None:
        ds = read_parquet_nometa(
            src, columns=["doc_id", "text", "lang"],
        ).map_batches(
            lambda t: t.filter(pc.equal(t["lang"], lang)),
            batch_format="pyarrow")
        build_index(ds, out, analyzer="simple", lang_col="lang",
                    num_buckets=num_buckets, sample_rate=1.0)

    return cached_dir(
        "pdfsearch_ftidx",
        (*file_key(src), "lang-route", lang, num_buckets),
        "manifest.json", build)


def routed_lang_topk(sf_dir: str):
    """Partition-routing gate: each query routes to its language's
    OWN index and scores with that partition's LOCAL statistics
    (local N / df / avgdl) — the per-tenant index semantics, and the
    deliberate CONTRAST to `filtered_topk` (global stats + filter) and
    `federated_topk` (global-stats correction): three distinct,
    individually-hashed answers to "search within a slice".  At scale
    routing is free (the partition key prunes everything); the index
    per partition is how multi-tenant search actually ships.

    The oracle recomputes the full BM25 chain over ONLY the routed
    language's documents, so the local-stats semantics are under the
    value hash."""
    import numpy as np
    import pyarrow as pa

    from ..analysis.analyzer import analyze_simple
    from .query import BM25Index

    out_q, out_l, out_d, out_s = [], [], [], []
    for q, lang in sorted(ROUTED_QUERIES):
        idx = BM25Index(lang_index_cached(sf_dir, lang))
        ids, sc = idx.score_terms(sorted(set(analyze_simple(q))))
        if not ids.size:
            continue
        sc = np.round(sc, 6)
        ids64 = ids.astype(np.int64)
        order = np.lexsort((ids64, -sc))[:ROUTED_K]
        out_q.extend([q] * order.size)
        out_l.extend([lang] * order.size)
        out_d.extend(ids64[order].tolist())
        out_s.extend(sc[order].tolist())
    ranks: list[int] = []
    prev = None
    for key in zip(out_q, out_l):
        ranks.append(1 if key != prev else ranks[-1] + 1)
        prev = key
    return pa.table({
        "query": pa.array(out_q, type=pa.string()),
        "lang": pa.array(out_l, type=pa.string()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "rank": pa.array(ranks, type=pa.int64()),
    })


def routed_lang_sql(queries=ROUTED_QUERIES, *, k: int = ROUTED_K,
                    k1: float = 1.2, b: float = 0.75) -> str:
    """Oracle: one BM25 chain PER LANGUAGE over only that language's
    documents — local N / df / avgdl, nothing global."""
    from ..analysis.analyzer import analyze_simple
    from .oracles import _sq

    parts = ["WITH "]
    first = True
    selects = []
    for qi, (q, lang) in enumerate(sorted(queries)):
        terms = sorted(set(analyze_simple(q)))
        qvals = ", ".join(f"('{_sq(t)}')" for t in terms) or "('')"
        lead = "" if first else ","
        first = False
        parts.append(f"""{lead}
        tok{qi} AS (
            SELECT doc_id, unnest(regexp_split_to_array(lower(text),
                                  '[^a-z0-9]+')) AS term
            FROM documents WHERE lang = '{_sq(lang)}'
        ),
        tk{qi} AS (SELECT * FROM tok{qi} WHERE term <> ''),
        dl{qi} AS (SELECT doc_id, count(*) AS dl FROM tk{qi}
                   GROUP BY doc_id),
        st{qi} AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl{qi}),
        q{qi}(term) AS (VALUES {qvals}),
        tfs{qi} AS (
            SELECT t.doc_id, t.term, count(*) AS tf
            FROM tk{qi} t JOIN q{qi} USING (term)
            GROUP BY t.doc_id, t.term
        ),
        dfs{qi} AS (SELECT term, count(*) AS df FROM tfs{qi} GROUP BY term),
        sc{qi} AS (
            SELECT tfs{qi}.doc_id,
                   sum(ln(1 + (st{qi}.n - dfs{qi}.df + 0.5) / (dfs{qi}.df + 0.5))
                       * tfs{qi}.tf / (tfs{qi}.tf + {k1} * (1 - {b} + {b} * dl{qi}.dl / st{qi}.avgdl))
                   ) AS s
            FROM tfs{qi}
            CROSS JOIN st{qi}
            JOIN dfs{qi} ON tfs{qi}.term = dfs{qi}.term
            JOIN dl{qi} ON tfs{qi}.doc_id = dl{qi}.doc_id
            GROUP BY tfs{qi}.doc_id
        )""")
        selects.append(f"""
        SELECT * FROM (
            SELECT '{_sq(q)}' AS query, '{_sq(lang)}' AS lang, doc_id,
                   round(s, 6) AS score,
                   row_number() OVER (
                       ORDER BY round(s, 6) DESC, doc_id ASC) AS rank
            FROM sc{qi}
        ) WHERE rank <= {k}""")
    return "".join(parts) + (" UNION ALL ".join(selects)
                             + " ORDER BY query, lang, rank")
