"""Index build pipeline (SURVEY §3.1 rebuilt Ray-Data-first).

    read_parquet(corpus)
      → [hot-term sample → tiny reduce]        → salt spec (auto_salt only)
      → [Tokenizer map_batches]                → (term, salt, bucket, docs, tfs, positions)
                                                 + docs catalog parquet (one doc length each)
      → write_parquet(partition_cols=[bucket]) → per-bucket token spill
      → catalog doc lengths                    → N, total_dl, avgdl (exact)
      → one encode task per bucket             → posting-block rows
      → one postings file per bucket           → + manifest.json

Design notes (scale):
* The posting shuffle is a map-side hash partition (partitioned parquet
  write keyed by ``bucket = fnv1a64(term) % num_buckets``) plus one
  vectorized encode task per bucket — the classic disk-mediated hash
  shuffle, with no all-to-all sort (measured 2-3× faster than Ray's
  sort-based groupby for this shape, and the sort order was thrown away
  anyway: encode re-sorts each (term, salt) run by doc_id).  Key
  cardinality is ``num_buckets`` (not vocabulary size) and head-term
  skew inside a bucket is bounded by the salt column.  This replaces the
  reference's single-threaded bleve index writer
  (internal/doclib/index_pdfs.go:104-167) — no single-writer bottleneck,
  and the spill dir is a resumable checkpoint between the two phases.
* Corpus stats (N, total_dl, avgdl) come from the docs catalog the
  tokenize pass writes, so they are exact in every build and the corpus
  is tokenized once.  ``sample_rate`` is only the deterministic
  doc_id-hash sample of the ``auto_salt`` hot-term pass.
* Output layout: ``<index_dir>/docs/*.parquet``, one
  ``<index_dir>/postings/part-<bucket>.parquet`` per non-empty bucket
  (``manifest.postings_file_name``) + manifest —
  the analog of the reference's persistDir layout (bleve_pdf.go:93-130).
"""

from __future__ import annotations

from ..functions.spill import BUCKET_COL, bucket_exchange
from ..functions.tables import block_tables

import time
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..analysis.analyzer import ANALYZER_VERSION, get_analyzer
from ..functions.hashing import content_hash, mix64
from ..index.codec import BLOCK_SIZE, INDEX_WRITE_OPTIONS
from ..stages.tokenize import (DEFAULT_NUM_BUCKETS, Tokenizer,
                               catalog_hash_scheme)
from ..state.manifest import (FORMAT_VERSION, IndexManifest,
                              postings_file_name)

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_HOT_DF_RATIO = 0.25
DEFAULT_NUM_SALTS = 8
_SAMPLE_MOD = 1 << 16


def _sample_mask(doc_ids: np.ndarray, rate: float) -> np.ndarray:
    """Deterministic doc sample: mix64(doc_id) % M < rate*M."""
    if rate >= 1.0:
        return np.ones(len(doc_ids), dtype=bool)
    thresh = np.uint64(int(rate * _SAMPLE_MOD))
    return (mix64(doc_ids.astype(np.uint64)) % np.uint64(_SAMPLE_MOD)) < thresh


def _source_columns(source, cols: list[str]) -> list[str]:
    """Extend a parquet projection with the source's ``hash`` column when
    it carries one: _DocMeta passes a source hash through to the catalog
    (the extract checkpoint stores sha256(html)), and append_index's
    known-content skip compares against the SAME identity — dropping the
    column here would silently recompute sha256(text) and never match."""
    import glob as _g
    import os

    import pyarrow.parquet as _pq

    first = None
    if isinstance(source, str):
        if os.path.isdir(source):
            # include partitioned layouts (write_parquet with
            # partition_cols nests files in key=value subdirs)
            first = next(iter(sorted(
                _g.glob(os.path.join(source, "*.parquet")))), None) \
                or next(iter(sorted(
                    _g.glob(os.path.join(source, "**", "*.parquet"),
                            recursive=True))), None)
        else:
            first = source
    elif isinstance(source, (list, tuple)) and source:
        first = source[0]
    if first:
        try:
            if "hash" in _pq.read_schema(first).names:
                return cols + ["hash"]
        except Exception:
            pass
    return cols


def sampled_df(ids: np.ndarray, texts: list, analyze,
               rate: float) -> tuple[int, dict[str, int]]:
    """One batch's share of hot-term detection: (docs in the doc-hash
    sample with at least one token, {term: df over those docs}).  Only
    near-hot terms are kept: a term can't be hot globally without being
    frequent in most batches, so the per-batch floor max(2, docs // 16)
    bounds the rows that leave a worker to about the head of the Zipf
    curve instead of the sample's whole vocabulary."""
    ndocs = 0
    counts: dict[str, int] = {}
    for keep, text in zip(_sample_mask(ids, rate), texts):
        if not keep or not text:
            continue
        toks = analyze(text)
        if not toks:
            continue
        ndocs += 1
        for term in set(toks):
            counts[term] = counts.get(term, 0) + 1
    floor = max(2, ndocs // 16)
    return ndocs, {t: c for t, c in counts.items() if c >= floor}


def hot_term_salts(df: dict[str, int], n_sampled: int, hot_df_ratio: float,
                   num_salts: int) -> dict[str, int]:
    """Salt shard count per hot term (SURVEY §4 skew row): a term whose
    sampled df reaches ``hot_df_ratio`` of the sampled docs gets shards
    in proportion to its df over that threshold, between 2 and
    ``num_salts`` — a barely-hot term gets 2, a term in every doc about
    1/hot_df_ratio.  Fewer shards than a flat num_salts for the mid-tail
    means fewer buckets probed per query term, while each shard's df
    stays near the threshold."""
    thresh = hot_df_ratio * max(1, n_sampled)
    return {t: int(np.clip(np.ceil(d / thresh) + 1, 2, num_salts))
            for t, d in df.items() if d >= thresh}


def _load_source(source, *cols: str | None) -> rd.Dataset:
    """``source`` as a Dataset: a Dataset as given, parquet path(s) read
    with the named columns (``None`` skipped) and the source's ``hash``
    column when it has one."""
    if isinstance(source, rd.Dataset):
        return source
    from ..functions.tables import read_parquet_nometa

    return read_parquet_nometa(
        source, columns=_source_columns(source, [c for c in cols if c]))


class _HotTermDf:
    """``map_batches`` body of the hot-term pass: one ``sampled_df`` per
    batch as (term, df_part) rows; the row with term "" carries the
    batch's sampled doc count."""

    def __init__(self, analyzer: str, text_col: str, id_col: str,
                 rate: float):
        self.analyze = get_analyzer(analyzer)
        self.text_col, self.id_col, self.rate = text_col, id_col, rate

    def __call__(self, batch: pa.Table) -> pa.Table:
        n, df = sampled_df(batch[self.id_col].to_numpy(zero_copy_only=False),
                           batch[self.text_col].to_pylist(), self.analyze,
                           self.rate)
        return pa.table({
            "term": pa.array([""] + list(df), type=pa.string()),
            "df_part": pa.array([n] + list(df.values()), type=pa.int64()),
        })


def _catalog_stats(doc_dl: tuple[np.ndarray, np.ndarray]
                   ) -> tuple[int, int, float]:
    """(N, total_dl, avgdl) of a docs catalog, exact: N counts the docs
    that entered the index (at least one token after analysis), as the
    reference's bleve DocCount counts indexed pages, not catalog rows."""
    dl = doc_dl[1]
    n = int(np.count_nonzero(dl))
    total = int(dl.sum(dtype=np.int64))
    return n, total, (total / n) if n else 1.0


def _dir_bytes(path: str) -> int:
    """Total bytes under a stage dir (index-size lineage metric)."""
    import os

    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


def build_index(
    source: str | list[str] | rd.Dataset,
    index_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    url_col: str | None = None,
    lang_col: str | None = None,
    analyzer: str = "en",
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    block_size: int = BLOCK_SIZE,
    sample_rate: float = 1.0,
    hot_terms: dict[str, int] | None = None,
    auto_salt: bool = False,
    hot_df_ratio: float = DEFAULT_HOT_DF_RATIO,
    num_salts: int = DEFAULT_NUM_SALTS,
    with_positions: bool = True,
    store_text: bool = True,
    tokenize_concurrency: int | None = None,
    tokenize_batch_size: int = 1024,
    spill_coalesce: int | None = None,
    row_group_size: int = 1024,
    resume: bool = False,
    audit_unique: bool = False,
    report=None,
) -> IndexManifest:
    """Build a BM25 inverted index at ``index_dir`` from a Parquet corpus
    (or an already-constructed Dataset, e.g. the extract checkpoint).

    Every stage output (docs / token spill / postings) is written to a
    ``.tmp`` dir and renamed on completion, so a partially-written stage
    is invisible — the atomicity the reference approximates with
    rollback-on-partial-write (bleve_pdf.go:342-351).  With
    ``resume=True`` a rerun skips any stage whose final dir exists and
    whose recorded build config matches; a killed build restarts from the
    last completed stage (north_rule: resumable from per-partition
    checkpoints — partition-level resume lives in the extract source,
    stage-level here).

    N, total_dl and avgdl are exact, read from the docs catalog the
    tokenize pass writes.  ``sample_rate`` is only the doc-hash sample
    of the ``auto_salt`` hot-term pass, which runs when ``auto_salt`` is
    set and ``hot_terms`` is not given.

    ``report``: optional ``fn(str)`` progress callback — the reference's
    report hook (index_search.go:62-67, invoked per file at
    index_pdfs.go:160-166); here invoked per stage."""
    import hashlib
    import json as _json
    import os
    import shutil

    t0 = time.time()
    report = report or (lambda msg: None)

    cfg_fp = {
        "analyzer": analyzer, "k1": k1, "b": b, "num_buckets": num_buckets,
        "block_size": block_size, "sample_rate": sample_rate,
        "with_positions": with_positions, "store_text": store_text,
        "auto_salt": auto_salt,
        # a digest, not the list: the spec itself is the manifest's
        # salt_spec, and a config listing it under "hot_terms" (the
        # older form) no longer matches, so it rebuilds
        "hot_terms_sha256": hashlib.sha256(_json.dumps(
            sorted((hot_terms or {}).items())).encode()).hexdigest(),
        "analyzer_version": ANALYZER_VERSION,
        # a stage dir written in another index format is rebuilt, never
        # resumed into this format's manifest
        "format_version": FORMAT_VERSION,
    }
    cfg_path = f"{index_dir}/.build_config.json"
    prev_cfg = None
    if resume and os.path.exists(cfg_path):
        try:
            prev_cfg = _json.load(open(cfg_path))
        except Exception:
            prev_cfg = None
    resume = resume and prev_cfg == _json.loads(_json.dumps(cfg_fp))
    os.makedirs(index_dir, exist_ok=True)
    with open(cfg_path + ".tmp", "w") as f:
        _json.dump(cfg_fp, f)
    os.replace(cfg_path + ".tmp", cfg_path)

    corpus = _load_source(source, id_col, text_col, url_col, lang_col)

    def _fresh_stage(final_dir: str) -> str | None:
        """Return the tmp dir to write, or None if the stage is complete
        and resumable."""
        if resume and os.path.isdir(final_dir):
            return None
        tmp = final_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(final_dir, ignore_errors=True)
        return tmp

    # 1. hot-term detection (salting) over the doc-hash sample.  A
    # resumed build reuses the committed stages' hot terms: the sample's
    # per-batch floor follows how Ray cuts batches.
    hot_path = f"{index_dir}/.hot_terms.json"
    sec_hot = 0.0
    if auto_salt and hot_terms is None:
        t1 = time.time()
        if resume and os.path.exists(hot_path):
            hot_terms = dict(_json.load(open(hot_path)))
        else:
            parts = block_tables(corpus.map_batches(
                _HotTermDf(analyzer, text_col, id_col, sample_rate),
                batch_format="pyarrow"))
            df: dict[str, int] = {}
            n_sampled = 0
            for t in parts:
                for term, c in zip(t["term"].to_pylist(),
                                   t["df_part"].to_pylist()):
                    if term:
                        df[term] = df.get(term, 0) + c
                    else:
                        n_sampled += c
            hot_terms = hot_term_salts(dict(sorted(df.items())), n_sampled,
                                       hot_df_ratio, num_salts)
            with open(hot_path + ".tmp", "w") as f:
                _json.dump(sorted(hot_terms.items()), f)
            os.replace(hot_path + ".tmp", hot_path)
            report("hot-term pass done")
        sec_hot = time.time() - t1
    hot_terms = hot_terms or {}
    t_hot = time.time()

    # 2. tokenize (combined segments) → bucket partition spill → encode.
    # combine=True is the combiner: one (term, salt) segment row per batch
    # instead of one row per (doc, term), shrinking the shuffle by ~the
    # batch size for head terms (SURVEY §4: pre-aggregate before groupby).
    # Default is the task-pool path (per-worker memoized Tokenizer state,
    # zero actor-spawn warmup); pass tokenize_concurrency to pin a
    # fixed-size actor pool instead.
    #
    # The same pass writes the docs catalog, one file per batch with each
    # doc's length (stages/tokenize.write_catalog), so the corpus is read
    # once for the postings and the catalog.  Files are sorted per batch,
    # not globally: hydration prunes by row-group min/max footer stats,
    # which only needs each row group's doc_id range to be tight.
    # A resumed build keeps a committed catalog (its config matched).
    docs_dir = f"{index_dir}/docs"
    docs_tmp = _fresh_stage(docs_dir)
    tokenizer_kwargs: dict[str, Any] = dict(
        analyzer=analyzer, text_col=text_col, id_col=id_col,
        num_buckets=num_buckets, hot_terms=hot_terms,
        with_positions=with_positions, combine=True,
        catalog=None if docs_tmp is None else {
            "dir": docs_tmp, "url_col": url_col, "lang_col": lang_col,
            "store_text": store_text},
    )
    if tokenize_concurrency is not None:
        tokens = corpus.map_batches(
            Tokenizer,
            fn_constructor_kwargs=tokenizer_kwargs,
            batch_format="pyarrow",
            batch_size=tokenize_batch_size,
            concurrency=tokenize_concurrency,
        )
    else:
        from functools import partial

        from ..stages.tokenize import tokenize_batch

        tokens = corpus.map_batches(
            partial(tokenize_batch, cfg=tokenizer_kwargs),
            batch_format="pyarrow",
            batch_size=tokenize_batch_size,
        )

    # The posting shuffle is a partitioned parquet write (mapper-side hash
    # partition by bucket, no all-to-all sort) followed by one encode task
    # per bucket.  Ray's sort-based groupby costs ~O(blocks²) scheduling for
    # this shape and the sort order is irrelevant — encode_bucket_segments
    # re-sorts each (term, salt) run by doc_id itself, so any arrival order
    # yields byte-identical postings.  The tokens dir doubles as the
    # shuffle spill: it survives a crash between tokenize and encode, and
    # each encode task reads exactly its bucket (north_rule: partitioning
    # explicit, resumable from per-partition state).
    tokens_dir = f"{index_dir}/_tokens"
    postings_dir = f"{index_dir}/postings"
    postings_done = resume and os.path.isdir(postings_dir)
    spill_bytes = None
    if not postings_done:
        if spill_coalesce is not None:
            # coalesce tokenize output into fewer, larger blocks before
            # the partitioned spill write: files per bucket drop from
            # n_tokenize_blocks to spill_coalesce, so parquet pages get
            # long enough for DELTA_BINARY_PACKED on seg_docs to
            # amortize (the round-4 measurement: 4.3× on a consolidated
            # bucket file vs ~none on 20-row pages).  repartition is an
            # extra exchange of the COMBINED token segments (~the spill
            # size, not the corpus), traded for smaller spill IO.
            tokens = tokens.repartition(spill_coalesce)
        if docs_tmp is not None:
            # the catalog is written by the pass that writes the spill
            shutil.rmtree(tokens_dir, ignore_errors=True)
        tmp = _fresh_stage(tokens_dir)
        if tmp is not None:
            # seg_docs dominates the spill (measured: 21.4 of 39 MB of
            # column bytes on the 120k bench corpus) and is ascending
            # within each segment — DELTA_BINARY_PACKED cuts it ~4x
            # (278→65 KB per bucket measured), shrinking the shuffle's
            # write+read traffic on the bandwidth-bound pair.  zstd at
            # level 1: the spill is written once and read once, and on
            # the seed-7 benchmark spill it is 30% smaller than Snappy
            # for about 0.2 ms more write time per file.  Values are
            # unchanged; the index stays bit-identical.
            tokens.write_parquet(
                tmp, partition_cols=["bucket"],
                compression="zstd", compression_level=1,
                use_dictionary=["term"],
                column_encoding={
                    "seg_docs.list.element": "DELTA_BINARY_PACKED"},
            )
            # an empty corpus writes no files (and no tmp dir): commit
            # an empty stage so the build yields a valid empty index.
            # The catalog commits first: a committed spill implies it.
            for final, stage in ((docs_dir, docs_tmp), (tokens_dir, tmp)):
                if stage is not None:
                    os.makedirs(stage, exist_ok=True)
                    os.rename(stage, final)
        if os.path.isdir(tokens_dir):
            spill_bytes = _dir_bytes(tokens_dir)
    t_tok = time.time()
    report(f"token segments spilled in {t_tok - t_hot:.1f}s"
           + (f" ({spill_bytes / 1e6:.1f} MB)" if spill_bytes else ""))

    from ..index.build_blocks import (catalog_doc_lengths,
                                      encode_bucket_segments)

    bucket_dirs = sorted(
        f"{tokens_dir}/{d}" for d in os.listdir(tokens_dir)
        if d.startswith("bucket=")
    ) if not postings_done else []

    def _encode_bucket_dir(batch: pa.Table) -> pa.Table:
        """Encode each bucket dir of ``batch`` and write its blocks to
        the file named by its bucket (``postings_file_name``), which is
        how a reader knows the bucket, and a retried task rewrites the
        same file.  Small row groups +
        per-rg term/doc-span stats: the query engine prunes to
        the row groups whose term range covers its terms — and, for
        doc-range shard handles, whose [first_doc, last_doc] span
        intersects the shard's slice.  Written here and not by Ray's
        ``write_parquet``, whose dataset writer cannot leave out the
        embedded Arrow schema the policy drops.  Returns each bucket's
        block rows and the seconds its ``pq.write_table`` took."""
        import pyarrow.parquet as pq

        rows, write_s = [], []
        for bdir in batch["dir"].to_pylist():
            bnum = int(os.path.basename(bdir).split("=")[1])
            t = encode_bucket_segments(
                pq.read_table(bdir, use_threads=False), doc_dl=doc_dl,
                k1=k1, b=b, avgdl=avgdl,
                block_size=block_size, with_positions=with_positions,
            )
            tw = time.perf_counter()
            if t.num_rows:
                pq.write_table(t,
                               f"{postings_tmp}/{postings_file_name(bnum)}",
                               row_group_size=row_group_size,
                               **INDEX_WRITE_OPTIONS["postings"])
            rows.append(t.num_rows)
            write_s.append(time.perf_counter() - tw)
        return pa.table({"rows": pa.array(rows, pa.int64()),
                         "write_s": pa.array(write_s, pa.float64())})

    # each doc's length, from the catalog the tokenize pass committed (the
    # spill carries none): the corpus stats, and every encode task looks
    # its postings' docs up in it
    doc_dl = catalog_doc_lengths(docs_dir)
    n_docs, total_dl, avgdl = _catalog_stats(doc_dl)
    n_catalog = int(doc_dl[0].size)
    sec_write = 0.0
    if not postings_done:
        postings_tmp = _fresh_stage(postings_dir)
        os.makedirs(postings_tmp)           # an empty corpus writes no file
        encoded = block_tables(rd.from_items(
            [{"dir": d} for d in bucket_dirs],
            override_num_blocks=max(1, len(bucket_dirs)),
        ).map_batches(_encode_bucket_dir, batch_format="pyarrow",
                      batch_size=1))
        # summed over the encode tasks: CPU seconds, not wall
        sec_write = sum(pc.sum(t["write_s"]).as_py() for t in encoded)
        os.rename(postings_tmp, postings_dir)
        # the spill is only removable once postings are durably renamed
        shutil.rmtree(tokens_dir, ignore_errors=True)
    if audit_unique:
        # J2 bimap audit (CheckConsistency analog): a duplicate doc_id
        # from an id-assignment collision would silently corrupt
        # postings.  Narrow id-only shuffle; opt-in because uniqueness is
        # structural for the extract source (see duplicate_doc_ids).
        dups = duplicate_doc_ids(rd.read_parquet(docs_dir, columns=["doc_id"]))
        if dups.size:
            raise BuildConsistencyError(
                f"docs catalog has {dups.size} duplicate doc_id(s); "
                f"first few: {dups[:5].tolist()}"
            )
    t_post = time.time()
    report(
        f"postings written in {t_post - t_hot:.1f}s "
        f"({n_catalog / max(t_post - t0, 1e-9):.0f} docs/sec overall)"
    )

    manifest = IndexManifest(
        n_docs=n_docs,
        avgdl=avgdl,
        total_tokens=total_dl,
        analyzer=analyzer,
        analyzer_version=ANALYZER_VERSION,
        k1=k1,
        b=b,
        num_buckets=num_buckets,
        block_size=block_size,
        salt_spec=hot_terms,
        built_at=t0,
        total_dl=total_dl,
        with_positions=with_positions,
        build_metrics={
            "sec_hot": round(sec_hot, 3),
            "sec_tokenize": round(t_tok - t_hot, 3),
            "sec_encode": round(t_post - t_tok, 3),
            "sec_postings_write": round(sec_write, 3),
            "sec_postings": round(t_post - t_hot, 3),
            "sec_total": round(t_post - t0, 3),
            "docs_per_sec": round(n_catalog / max(t_post - t0, 1e-9), 2),
            "n_docs_catalog": n_catalog,
            "store_text": store_text,
            "hash_provenance": (catalog_hash_scheme(docs_dir)
                                or _hash_provenance(source)),
            "bytes_postings": _dir_bytes(postings_dir),
            "bytes_docs": _dir_bytes(docs_dir),
            # token-spill lineage: shuffle bytes written (None when the
            # stage was resumed from a prior run's committed spill)
            "bytes_token_spill": spill_bytes,
            "spill_coalesce": spill_coalesce,
        },
    )
    manifest.save(index_dir)
    return manifest


def build_index_mem(
    source: str | list[str] | rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    url_col: str | None = None,
    lang_col: str | None = None,
    analyzer: str = "en",
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    num_buckets: int = 16,
    block_size: int = BLOCK_SIZE,
    hot_terms: dict[str, int] | None = None,
    tokenize_concurrency: int | tuple[int, int] = 2,
):
    """In-memory index build — S5 parity (the reference's mem index when
    persistDir=="", bleve_glue.go:35-38; selected at index_pdfs.go:50-55).
    Same stages as build_index but materialized to Arrow tables instead
    of parquet; for tests and small ephemeral corpora."""
    from .query import BM25Index

    corpus = _load_source(source, id_col, text_col, url_col, lang_col)

    def _concat(ds: rd.Dataset, schema: pa.Schema) -> pa.Table:
        # Ray may emit zero-row pass-through blocks carrying the *upstream*
        # schema (e.g. an empty sort partition never reaches map_groups);
        # block_tables drops them before concatenating.
        tabs = block_tables(ds)
        return pa.concat_tables(tabs) if tabs else schema.empty_table()

    from ..functions.spill import spill_dir
    from ..index.build_blocks import (catalog_doc_lengths,
                                      encode_bucket_segments)
    from ..schemas import DOCS, POSTINGS

    # the tokenize pass writes the catalog, as in build_index; here into
    # a scoped spill that is read back whole.  The tokens are
    # materialized first, so the catalog is complete before the corpus
    # stats are taken from it and encode looks doc lengths up in it.
    with spill_dir("pdfsearch_memdocs") as cat_dir:
        tokens = corpus.map_batches(
            Tokenizer,
            fn_constructor_kwargs=dict(
                analyzer=analyzer, text_col=text_col, id_col=id_col,
                num_buckets=num_buckets, hot_terms=hot_terms or {},
                with_positions=True, combine=True,
                catalog={"dir": cat_dir, "url_col": url_col,
                         "lang_col": lang_col, "store_text": True},
            ),
            batch_format="pyarrow",
            concurrency=tokenize_concurrency,
        ).materialize()
        doc_dl = catalog_doc_lengths(cat_dir)
        n_docs, total_dl, avgdl = _catalog_stats(doc_dl)

        def _encode(group: pa.Table) -> pa.Table:
            return encode_bucket_segments(group, doc_dl=doc_dl, k1=k1,
                                          b=b, avgdl=avgdl,
                                          block_size=block_size)

        postings_tbl = _concat(
            tokens.groupby("bucket")
            .map_groups(_encode, batch_format="pyarrow"),
            POSTINGS,
        )
        import glob as _glob

        import pyarrow.parquet as pq

        parts = [pq.ParquetFile(f).read() for f in
                 sorted(_glob.glob(f"{cat_dir}/*.parquet"))]
        docs_tbl = pa.concat_tables(parts) if parts else DOCS.empty_table()
    manifest = IndexManifest(
        n_docs=n_docs, avgdl=avgdl,
        total_tokens=total_dl, total_dl=total_dl, analyzer=analyzer,
        analyzer_version=ANALYZER_VERSION, k1=k1, b=b,
        num_buckets=num_buckets, block_size=block_size,
        salt_spec=hot_terms or {},
    )
    return BM25Index.from_tables(manifest, postings_tbl, docs_tbl)


class BuildConsistencyError(RuntimeError):
    """Raised when the docs catalog violates an index invariant (J2
    bimap audit analog — the reference's CheckConsistency,
    internal/doclib/bleve_pdf.go:177-223)."""


def duplicate_doc_ids(ds: rd.Dataset, id_col: str = "doc_id",
                      num_buckets: int = 16) -> np.ndarray:
    """Doc_ids appearing more than once, via the NARROW bucket-spill
    shuffle (only the 8-byte id column moves).  doc_id uniqueness is
    structural for the extract source ((partition_id << 32) | row with
    validated markers); this audit is the explicit check for arbitrary
    sources, where a colliding id would silently corrupt postings."""
    def _dups(_b: int, t: pa.Table) -> pa.Table:
        ids = np.sort(t["doc_id"].to_numpy())
        dup = ids[1:][ids[1:] == ids[:-1]]
        return pa.table({"doc_id": pa.array(np.unique(dup))})

    tabs = block_tables(bucket_exchange(
        [ds.map_batches(
            lambda t: pa.table({"doc_id": pa.array(t[id_col].to_numpy(
                zero_copy_only=False).astype(np.int64))}),
            batch_format="pyarrow").repartition(num_buckets)],
        ["doc_id"], num_buckets, _dups))
    if not tabs:
        return np.empty(0, dtype=np.int64)
    return np.sort(pa.concat_tables(tabs)["doc_id"].to_numpy())


def _hash_buckets(hashes: list, num_buckets: int) -> list[int]:
    """Deterministic bucket id per content-hash string.  crc32, not
    ``int(x[:8], 16)``: user-supplied hash columns need not be hex."""
    from zlib import crc32

    return [crc32(x.encode("utf-8")) % num_buckets if x else 0
            for x in hashes]


def dup_loser_ids(
    ds: rd.Dataset,
    hash_col: str = "hash",
    id_col: str = "doc_id",
    num_buckets: int = 16,
) -> np.ndarray:
    """Doc_ids of every duplicate row (all but the min-doc_id per content
    hash), computed with a NARROW shuffle: only (hash, doc_id) pairs move,
    never the text payload.  Pairs spill to a bucket-partitioned parquet
    dir (the same map-side hash shuffle the posting build uses), one task
    per bucket extracts its losers, and only the loser ids come back —
    the small output of a distributed computation, not a corpus gather."""
    def _pairs(t: pa.Table) -> pa.Table:
        return pa.table({
            "hash": t[hash_col],
            "doc_id": t[id_col].cast(pa.int64()),
            BUCKET_COL: pa.array(_hash_buckets(t[hash_col].to_pylist(),
                                               num_buckets),
                                 type=pa.int32()),
        })

    def _losers(_b: int, t: pa.Table) -> pa.Table:
        h = t["hash"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy()
        order = np.lexsort((ids, h))
        hs = h[order]
        keep_first = np.ones(hs.size, dtype=bool)
        keep_first[1:] = hs[1:] != hs[:-1]
        return pa.table({"doc_id": pa.array(ids[order][~keep_first])})

    tabs = block_tables(bucket_exchange(
        [ds.select_columns([hash_col, id_col])
         .map_batches(_pairs, batch_format="pyarrow")
         # pairs are ~50 bytes/doc: coalesce to num_buckets blocks
         # before the partitioned write so the spill is num_buckets²
         # files, not (input blocks × num_buckets) tiny ones
         .repartition(num_buckets)],
        [None], num_buckets, _losers))
    if not tabs:
        return np.empty(0, dtype=np.int64)
    return np.sort(pa.concat_tables(tabs)["doc_id"].to_numpy())


class _DropIds:
    """Batch filter against a broadcast sorted id array (``ray.put`` once,
    zero-copy ``ray.get`` per task — the broadcast-small-side pattern)."""

    def __init__(self, ids_ref, id_col: str):
        self.ids_ref = ids_ref
        self.ids: np.ndarray | None = None
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.ids is None and self.ids_ref is not None:
            import ray

            # resolved on the worker: zero-copy read from the local object
            # store (fetched once per node), not shipped per task
            self.ids = ray.get(self.ids_ref)
        drop = self.ids
        if drop is None or drop.size == 0:
            return t
        ids = t[self.id_col].to_numpy()
        pos = np.searchsorted(drop, ids)
        pos = np.minimum(pos, drop.size - 1)
        hit = drop[pos] == ids
        return t.filter(pa.array(~hit))


def dedup_exact(
    ds: rd.Dataset,
    hash_col: str = "hash",
    id_col: str = "doc_id",
    num_buckets: int = 16,
) -> rd.Dataset:
    """Exact content dedup: keep the min-doc_id row per content hash —
    the dedup the reference declares but leaves inert (D2,
    bleve_pdf.go:385-409,500-507), implemented for real.

    Two phases: a narrow (hash, doc_id) shuffle finds the duplicate
    ("loser") ids, which are broadcast (``ray.put``) and anti-joined
    against the corpus inside ``map_batches`` — the text payload is
    filtered in place, never shuffled.  Scale note: the loser set is
    O(duplicate mass), far smaller than the corpus; when even that
    outgrows a broadcast (extreme dup rates at 10^12 docs), the same
    loser table can be range-partitioned by doc_id and each corpus block
    anti-joined against its pruned slice — the shuffle stays narrow
    either way."""
    import ray

    losers = dup_loser_ids(ds, hash_col, id_col, num_buckets)
    ref = ray.put(losers)
    return ds.map_batches(
        _DropIds(ref, id_col), batch_format="pyarrow"
    )


def _committed_doc_files(index_dir: str, m) -> list[str]:
    """Parquet files of every manifest-committed docs catalog."""
    import glob as _glob

    dirs = [f"{index_dir}/docs"] + [
        f"{index_dir}/segments/{s['name']}/docs"
        for s in m.segments if s["name"] != "base"
    ]
    return [f for d in dirs for f in sorted(_glob.glob(f"{d}/*.parquet"))]


def delete_docs(
    index_dir: str,
    *,
    doc_ids=None,
    hashes=None,
) -> dict:
    """Tombstone documents in an existing index — the catalog-remove
    analog (bleve_pdf.go:166-175) with Lucene/scorch lazy-delete
    semantics: queries exclude the docs immediately, but BM25 corpus
    stats (N, df, avgdl) stay pre-delete until ``compact_index``
    physically drops the rows.

    Accepts doc_ids and/or content hashes (hashes resolve to doc_ids
    via a NARROW (hash, doc_id) scan of the committed catalogs).  The
    tombstone set is written as a new parquet under
    ``<index_dir>/tombstones/`` and committed by the atomic manifest
    save; a crash before the save leaves an unlisted (invisible) file."""
    import os

    import pyarrow.parquet as pq

    from ..state.manifest import IndexManifest

    m = IndexManifest.load(index_dir)
    ids = {int(i) for i in (doc_ids or [])}
    if hashes:
        hs = pa.array(sorted(set(hashes)), type=pa.string())
        cat = (
            rd.read_parquet(_committed_doc_files(index_dir, m),
                            columns=["hash", "doc_id"])
            .map_batches(
                lambda t: t.filter(pc.is_in(t["hash"], value_set=hs)),
                batch_format="pyarrow")
            .to_pandas()
        )
        ids.update(int(i) for i in cat["doc_id"])
    existing = m.tombstone_ids(index_dir)
    new = np.array(sorted(ids), dtype=np.int64)
    new = new[~np.isin(new, existing)]
    if new.size == 0:
        return {"n_new": 0, "n_deleted_total": int(existing.size)}
    tdir = f"{index_dir}/tombstones"
    os.makedirs(tdir, exist_ok=True)
    fname = f"t-{len(m.tombstones):04d}.parquet"
    tmp = f"{tdir}/.{fname}.tmp"
    pq.write_table(pa.table({"doc_id": pa.array(new, type=pa.int64())}), tmp,
                   **INDEX_WRITE_OPTIONS["tombstones"])
    os.replace(tmp, f"{tdir}/{fname}")
    m.tombstones = list(m.tombstones) + [fname]
    m.build_metrics = dict(
        m.build_metrics,
        n_deleted=int(existing.size + new.size),
    )
    m.save(index_dir)  # commit
    return {"n_new": int(new.size),
            "n_deleted_total": int(existing.size + new.size)}


def compact_index(
    index_dir: str,
    *,
    resume: bool = False,
    remove_old: bool = True,
    report=None,
) -> IndexManifest:
    """Merge append segments and purge tombstones by rebuilding the
    index from its own stored docs catalogs — the scorch segment-merge
    analog, run as an explicit distributed job instead of a background
    thread.

    Requires ``store_text=True`` catalogs.  Corpus stats (N, avgdl) come
    from the rebuilt catalog of the surviving docs, with no stats pass,
    so the compacted index scores IDENTICALLY to a from-scratch build
    over the same rows (tested).
    The rebuild happens at ``<index_dir>.compact.tmp`` and is swapped in
    with two renames; a crash between them is recovered on the next
    compact_index call (the displaced ``.old`` tree is restored before
    anything else).  ``remove_old=False`` keeps ``<index_dir>.old`` on
    disk so warm serving replicas can keep answering until they
    reload() — with the default True, reload every replica FIRST.  The
    parent's salt_spec is reused so bucket placement stays stable."""
    import os
    import shutil

    from ..state.manifest import IndexManifest

    old_dir = index_dir.rstrip("/") + ".old"
    if not os.path.isdir(index_dir) and os.path.isdir(old_dir):
        # crash recovery: a previous compact died between its two swap
        # renames (index_dir moved away, replacement not yet moved in).
        # Restore the old tree and redo the compaction from it.
        os.rename(old_dir, index_dir)
    m = IndexManifest.load(index_dir)
    if not m.build_metrics.get("store_text", True):
        raise ValueError("compact_index requires store_text=True catalogs")
    doc_files = _committed_doc_files(index_dir, m)
    if doc_files:
        ds = rd.read_parquet(doc_files)
    else:
        # empty index: no catalog files — compact to another valid
        # empty index rather than failing the read
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "url": pa.array([], type=pa.string()),
            "lang": pa.array([], type=pa.string()),
            "text": pa.array([], type=pa.string()),
        }))
    tomb = m.tombstone_ids(index_dir)
    if tomb.size:
        import ray

        ref = ray.put(tomb)
        ds = ds.map_batches(_DropIds(ref, "doc_id"), batch_format="pyarrow")
    tmp_dir = index_dir.rstrip("/") + ".compact.tmp"
    if not resume:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    mnew = build_index(
        ds, tmp_dir,
        text_col="text", id_col="doc_id", url_col="url", lang_col="lang",
        analyzer=m.analyzer, k1=m.k1, b=m.b,
        num_buckets=m.num_buckets, block_size=m.block_size,
        hot_terms=dict(m.salt_spec or {}), auto_salt=False,
        with_positions=m.with_positions, store_text=True,
        resume=resume, report=report,
    )
    # the compaction source is the docs catalog, whose hash column is the
    # ORIGINAL identity scheme — preserve the parent's provenance so a
    # later append applies the same mismatch rules
    prov = m.build_metrics.get("hash_provenance")
    if prov is not None:
        mnew.build_metrics = dict(mnew.build_metrics, hash_provenance=prov)
        mnew.save(tmp_dir)
    shutil.rmtree(old_dir, ignore_errors=True)
    os.rename(index_dir, old_dir)
    os.rename(tmp_dir, index_dir)
    if remove_old:
        # NOTE serving: warm BM25Index/QueryEngine handles still hold
        # row-group references into the old tree — call reload() on
        # every replica BEFORE compacting with remove_old=True, or pass
        # remove_old=False and delete <index_dir>.old after the fleet
        # has reloaded.
        shutil.rmtree(old_dir, ignore_errors=True)
    return mnew


class _AttachHash:
    """Attach the content ``hash`` column (sha256(text) fallback when the
    source doesn't carry one) so the known-hash skip, the docs stage and
    intra-delta dedup agree on one identity without recomputing it."""

    def __init__(self, text_col: str, drop_carried: bool = False):
        self.text_col = text_col
        self.drop_carried = drop_carried

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.drop_carried and "hash" in batch.schema.names:
            batch = batch.drop_columns(["hash"])
        if "hash" in batch.schema.names:
            return batch
        texts = batch[self.text_col].to_pylist()
        hashes = pa.array(
            [content_hash((t or "").encode("utf-8")) for t in texts],
            type=pa.string(),
        )
        return batch.append_column("hash", hashes)


class _AppendFilter:
    """Drop rows whose content hash is already indexed (the reference's
    open-existing-index skip: addFile reuses the catalog entry when the
    file hash is known, bleve_pdf.go:300-341).  ``known_ref`` holds only
    the MATCHED hashes (catalog ∩ delta, computed by the bucketed
    semi-join in ``append_skip_hashes``) — O(delta), never O(catalog)."""

    def __init__(self, known_ref, text_col: str):
        self.known_ref = known_ref
        self.text_col = text_col
        self._known = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        if self._known is None:
            self._known = ray.get(self.known_ref)
        batch = _AttachHash(self.text_col)(batch)
        if len(self._known) == 0:
            return batch
        keep = pc.invert(pc.is_in(batch["hash"], value_set=self._known))
        return batch.filter(keep)


def _hash_provenance(source) -> str:
    """``"source"`` when the input carries a precomputed hash column (the
    extract checkpoint stores sha256(html)); ``"text"`` when the catalog
    hash falls back to sha256(text).  Two schemes hash identical content
    differently, so appends must not silently mix them (ADVICE r2).

    A dataset's schema is read only when Ray knows it without running
    the plan (a read, ``from_arrow``, a materialized dataset); otherwise
    the answer is ``"unknown"``, because fetching it would run the plan
    a second time under ``limit(1)``.  A build records the scheme its
    catalog stage actually used (``tokenize.catalog_hash_scheme``), and
    falls back to this only for an empty catalog."""
    try:
        if isinstance(source, rd.Dataset):
            schema = source.schema(fetch_if_missing=False)
            if schema is None:
                return "unknown"
            names = schema.names
        else:
            names = _source_columns(source, [])
        return "source" if "hash" in names else "text"
    except Exception:
        return "unknown"


def append_skip_hashes(
    delta: rd.Dataset,
    doc_files: list[str],
    tombstones: np.ndarray,
    num_buckets: int = 16,
) -> pa.Array:
    """Delta content hashes already present in the committed catalogs —
    the known-hash skip set for ``append_index`` — computed as a
    hash-bucketed SEMI-JOIN so nothing catalog-sized ever reaches the
    driver (the r2 scale fix: the old path read every committed
    (hash, doc_id) ``to_pandas`` and broadcast the full set, terabytes
    of driver memory at 10^12 docs).

    Both narrow sides spill to one bucket-partitioned parquet dir
    (catalog rows tagged side=0 with doc_id for the tombstone filter,
    delta rows side=1), one task per bucket intersects its slice, and
    only the MATCHED hashes come back — bounded by |delta|, the side
    that is small by construction (it is the append batch itself)."""
    import ray

    if not doc_files:
        return pa.array([], type=pa.string())
    tomb_ref = ray.put(np.sort(tombstones.astype(np.int64))
                       if tombstones.size else None)

    def _narrow(side: int):
        def f(t: pa.Table) -> pa.Table:
            if side == 0:
                tomb = ray.get(tomb_ref)
                if tomb is not None:
                    # a tombstoned doc's content may legitimately be
                    # re-added (Lucene delete-then-add): exclude its
                    # catalog row from the skip set
                    ids = t["doc_id"].to_numpy()
                    pos = np.minimum(np.searchsorted(tomb, ids),
                                     tomb.size - 1)
                    t = t.filter(pa.array(~(tomb[pos] == ids)))
            h = t["hash"].to_pylist()
            return pa.table({
                "hash": t["hash"],
                "side": pa.array([side] * len(h), type=pa.int8()),
                BUCKET_COL: pa.array(_hash_buckets(h, num_buckets),
                                     type=pa.int32()),
            })
        return f

    def _matched(_b: int, t: pa.Table) -> pa.Table | None:
        side = t["side"].to_numpy()
        cat = t["hash"].filter(pa.array(side == 0))
        new = t["hash"].filter(pa.array(side == 1))
        if len(cat) == 0 or len(new) == 0:
            return None
        hit = pc.is_in(new, value_set=cat.unique())
        return pa.table({"hash": new.filter(hit).unique()})

    tabs = block_tables(bucket_exchange(
        [rd.read_parquet(doc_files, columns=["hash", "doc_id"])
         .map_batches(_narrow(0), batch_format="pyarrow")
         .union(delta.select_columns(["hash"])
                .map_batches(_narrow(1), batch_format="pyarrow"))
         .repartition(num_buckets)],
        [None], num_buckets, _matched))
    if not tabs:
        return pa.array([], type=pa.string())
    return pa.concat_tables(tabs)["hash"].combine_chunks().unique()


def _delta_digest(delta: rd.Dataset, id_col: str) -> str | None:
    """sha256 over a delta's (doc_id, hash) pairs in doc_id order — the
    identity of the segment an append builds from it; None when the
    delta has no rows."""
    import hashlib

    tabs = block_tables(delta.select_columns([id_col, "hash"]))
    if not tabs:
        return None
    t = pa.concat_tables(tabs).sort_by([(id_col, "ascending"),
                                        ("hash", "ascending")])
    h = hashlib.sha256(t[id_col].cast(pa.int64()).to_numpy().tobytes())
    h.update("\0".join(map(str, t["hash"].to_pylist())).encode("utf-8"))
    return h.hexdigest()


def append_index(
    source: str | list[str] | rd.Dataset,
    index_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    url_col: str | None = None,
    lang_col: str | None = None,
    dedup: bool = True,
    resume: bool = True,
    audit_unique: bool = False,
    tokenize_batch_size: int = 1024,
    report=None,
) -> dict:
    """Incrementally add new documents to an EXISTING index — the
    reference's forceCreate=false reopen-and-append path
    (bleve_glue.go:16-29, index_pdfs.go:35-66), re-expressed as a
    segment build:

    1. rows whose content hash is already indexed are skipped
       (bleve_pdf.go:300-341 addFile-reuse semantics).  The skip set is
       computed by a hash-BUCKETED semi-join of the committed catalogs'
       narrow (hash, doc_id) columns against the delta's hashes
       (``append_skip_hashes``): nothing catalog-sized is ever
       driver-materialized or broadcast — only the MATCHED hashes
       (≤ |delta|) come back and are ``ray.put`` once.
    2. the surviving delta is (optionally) exact-deduped within itself,
       then built as a NEW SEGMENT at ``<index_dir>/segments/seg-NNN``
       with the parent's analyzer/buckets/salt config.  No stats pass
       runs: the segment's block-max bounds are encoded at its own
       catalog's avgdl, recorded as its ``avgdl_baked``.
    3. the segment's exact n_docs and total_dl (from its catalog) are
       added to the parent manifest, whose segment list and avgdl are
       updated and atomically saved — the commit point.  A crash
       before the save leaves an un-listed (invisible) segment dir;
       re-running the same append resumes its completed stages and
       commits, while an append of a different delta rebuilds the dir
       (the delta's (doc_id, hash) digest is the dir's identity).

    Query-side consistency: postings store raw tf/dl (avgdl enters only
    at decode), so exact TAAT over the appended index reproduces a
    from-scratch rebuild over the union BITWISE (same N, df, avgdl ⇒
    same idf and wdl) — tested in tests/test_append.py.  Each segment's
    block-max metadata was encoded under its own avgdl; BM25Index
    scales those bounds by max(1, avgdl_now/avgdl_baked) (a valid
    upper-bound envelope: wdl is increasing in avgdl with ratio ≤
    avgdl'/avgdl), keeping MaxScore pruning sound.

    Returns a summary dict (segment name, docs added, dup-skips…)."""
    import os
    import shutil
    from pathlib import Path

    import ray

    from ..state.manifest import IndexManifest

    t0 = time.time()
    report = report or (lambda msg: None)
    m = IndexManifest.load(index_dir)
    m.check_format(index_dir)

    # 1. known-hash skip: bucketed semi-join of catalog hashes vs delta
    # hashes — only the matched (≤ |delta|) hashes are broadcast.
    # Identity-scheme guard (ADVICE r2): a base built from a hash-less
    # source stores sha256(text); a delta carrying a source hash would
    # compare a different identity for identical content.  text-base +
    # source-delta recomputes the delta's hashes from text; source-base
    # + text-delta cannot be reconciled and is refused.
    base_prov = m.build_metrics.get("hash_provenance", "unknown")
    delta_prov = _hash_provenance(source)
    drop_carried = base_prov == "text" and delta_prov == "source"
    skip_content = True
    if drop_carried:
        report("append: recomputing delta hashes from text "
               "(base index identity is sha256(text))")
    elif base_prov == "source" and delta_prov == "text":
        # the base's source hashes cannot be recomputed from delta text,
        # so cross-scheme content-identity is undecidable: disable the
        # content-skip (delta-internal dedup still runs on text hashes)
        # and force the doc_id-duplicate audit so any collision is
        # caught loudly instead of silently corrupting the catalog
        report("append: identity-scheme mismatch (base stores source "
               "hashes, delta carries none) — known-content skip "
               "disabled, doc_id uniqueness audit forced")
        skip_content = False
        audit_unique = True
    doc_files = _committed_doc_files(index_dir, m)
    tomb = m.tombstone_ids(index_dir)
    # materialize once: the hashed delta is consumed by the skip-join,
    # the identity digest AND the segment build — without this the
    # source read + sha256 re-run per consumer.  Object-store blocks spill
    # under pressure; size is bounded by the append batch itself.
    delta_hashed = _load_source(
        source, id_col, text_col, url_col, lang_col).map_batches(
        _AttachHash(text_col, drop_carried=drop_carried),
        batch_format="pyarrow",
    ).materialize()
    matched = (append_skip_hashes(delta_hashed, doc_files, tomb,
                                  num_buckets=m.num_buckets)
               if skip_content else pa.array([], type=pa.string()))
    known_ref = ray.put(matched)
    delta = delta_hashed.map_batches(
        _AppendFilter(known_ref, text_col), batch_format="pyarrow",
    )
    if dedup:
        delta = dedup_exact(delta, hash_col="hash", id_col=id_col,
                            num_buckets=m.num_buckets)

    # 2. build the delta as a segment under the parent's config.  A
    # segment dir left by a crashed append resumes only under the same
    # delta: its (doc_id, hash) digest is the dir's identity.
    def _none_added() -> dict:
        report("append: delta has no new docs")
        return {"segment": None, "n_added": 0, "n_docs": m.n_docs,
                "avgdl": m.avgdl, "sec_total": round(time.time() - t0, 3)}

    ident = _delta_digest(delta, id_col)
    if ident is None:
        return _none_added()
    seg_name = "seg-%03d" % (
        len([s for s in m.segments if s["name"] != "base"]) + 1)
    seg_dir = f"{index_dir}/segments/{seg_name}"
    ident_path = Path(seg_dir, ".delta_digest")
    if not (ident_path.exists() and ident_path.read_text() == ident):
        shutil.rmtree(seg_dir, ignore_errors=True)
        os.makedirs(seg_dir)
        ident_path.write_text(ident)
    seg = build_index(
        delta, seg_dir,
        text_col=text_col, id_col=id_col, url_col=url_col,
        lang_col=lang_col,
        analyzer=m.analyzer, k1=m.k1, b=m.b,
        num_buckets=m.num_buckets, block_size=m.block_size,
        hot_terms=dict(m.salt_spec or {}), auto_salt=False,
        with_positions=m.with_positions,
        store_text=m.build_metrics.get("store_text", True),
        tokenize_batch_size=tokenize_batch_size,
        resume=resume, report=report,
    )
    if seg.n_docs == 0:
        # no doc has a token: the delta leaves no segment behind
        shutil.rmtree(seg_dir, ignore_errors=True)
        return _none_added()
    report(f"append: delta has {seg.n_docs} new docs "
           f"({seg.total_dl} tokens)")

    # 3. commit: parent manifest update (atomic save)
    if not m.segments:
        m.segments.append({"name": "base", "n_docs": m.n_docs,
                           "total_dl": m.total_dl, "avgdl_baked": m.avgdl})
    m.segments = [s for s in m.segments if s["name"] != seg_name]
    m.segments.append({"name": seg_name, "n_docs": seg.n_docs,
                       "total_dl": seg.total_dl, "avgdl_baked": seg.avgdl})
    m.n_docs += seg.n_docs
    m.total_dl += seg.total_dl
    m.total_tokens = m.total_dl
    m.avgdl = m.total_dl / m.n_docs
    m.build_metrics = dict(
        m.build_metrics,
        appends=int(m.build_metrics.get("appends", 0)) + 1,
        last_append_sec=round(time.time() - t0, 3),
        last_append_docs=seg.n_docs,
    )
    m.save(index_dir)
    if audit_unique:
        import glob as _glob

        all_doc_files = doc_files + sorted(
            _glob.glob(f"{seg_dir}/docs/*.parquet"))
        dups = duplicate_doc_ids(
            rd.read_parquet(all_doc_files, columns=["doc_id"]))
        if dups.size:
            raise BuildConsistencyError(
                f"appended index has {dups.size} duplicate doc_id(s); "
                f"first few: {dups[:5].tolist()}")
    return {
        "segment": seg_name,
        "n_added": seg.n_docs,
        "n_docs": m.n_docs,
        "avgdl": m.avgdl,
        "segment_metrics": seg.build_metrics,
        "sec_total": round(time.time() - t0, 3),
    }


def tail_append(
    index_dir: str,
    watch_dir: str,
    *,
    poll_sec: float = 2.0,
    max_batches: int | None = None,
    idle_exit_sec: float | None = None,
    min_files: int = 1,
    compact_every: int | None = None,
    engines: list | None = None,
    report=None,
    **append_kwargs,
) -> dict:
    """Streaming micro-batch ingestion: tail ``watch_dir`` for delta
    parquet files and commit each batch as an incremental segment via
    :func:`append_index` (round 4; the streaming face of the
    forceCreate=false reopen path).

    Contract:
    * writers must land files ATOMICALLY (write tmp + rename into the
      watch dir) — the tailer consumes any ``*.parquet`` it sees;
    * consumed file names are recorded in ``<index_dir>/.tail_state.json``
      AFTER the manifest commit.  A crash between commit and state write
      re-appends the same files on restart, where the known-content-hash
      semi-join skips every row — re-ingestion is idempotent, so the
      state file is an optimization, not a correctness dependency;
    * serving replicas keep the OLD view until the manifest commit, and
      pick up the new segment on ``QueryEngine.reload()`` — pass
      ``engines`` (actor handles) to have the tailer trigger reloads
      after each commit (tested in tests/test_tail_append.py).

    ``compact_every=K`` folds the segment list back into a single base
    whenever the index accumulates ≥ K append segments (the tiered-merge
    stand-in: micro-batch commits keep queries fast only while the
    segment count stays bounded).  Compaction swaps the index dir
    atomically; with ``engines`` the replicas are reload()ed right
    after, same as for a segment commit.

    Exits after ``max_batches`` commits, or after ``idle_exit_sec``
    with no new files (None = run forever).  A pending batch smaller
    than ``min_files`` is FLUSHED (not stranded) when the idle deadline
    arrives; the flush resets the idle clock.  Returns a summary dict."""
    import glob as _glob
    import json as _json
    import os

    report = report or (lambda msg: None)
    state_path = f"{index_dir}/.tail_state.json"
    done: set[str] = set()
    if os.path.exists(state_path):
        try:
            done = set(_json.load(open(state_path)).get("files", []))
        except Exception:
            done = set()

    def _reload_engines() -> None:
        if engines:
            import ray

            ray.get([e.reload.remote() for e in engines])

    commits = 0
    compactions = 0
    n_added_total = 0
    batches: list[dict] = []
    last_activity = time.time()
    while True:
        files = sorted(_glob.glob(f"{watch_dir}/*.parquet"))
        todo = [f for f in files if os.path.basename(f) not in done]
        idle_hit = (idle_exit_sec is not None
                    and time.time() - last_activity >= idle_exit_sec)
        if todo:
            # flush a residual sub-min_files batch when the idle
            # deadline arrives — otherwise the tailer would exit with
            # unconsumed delta files silently stranded (round-4 advice);
            # the flush resets the idle clock, so exit happens on the
            # NEXT idle window with nothing pending
            if len(todo) >= min_files or idle_hit:
                report(f"tail: appending {len(todo)} delta file(s)")
                out = append_index(todo, index_dir, **append_kwargs)
                done |= {os.path.basename(f) for f in todo}
                with open(state_path + ".tmp", "w") as f:
                    _json.dump({"files": sorted(done)}, f)
                os.replace(state_path + ".tmp", state_path)
                commits += 1
                n_added_total += int(out.get("n_added", 0))
                batches.append({"files": len(todo),
                                "n_added": out.get("n_added", 0),
                                "segment": out.get("segment")})
                _reload_engines()
                if compact_every is not None:
                    from ..state.manifest import IndexManifest

                    m = IndexManifest.load(index_dir)
                    n_segs = len([s for s in m.segments
                                  if s["name"] != "base"])
                    if n_segs >= compact_every:
                        report(f"tail: compacting {n_segs} segments")
                        # keep .old until replicas reload (they answer
                        # from open handles meanwhile)
                        compact_index(index_dir, remove_old=False,
                                      report=report)
                        compactions += 1
                        _reload_engines()
                        import shutil as _shutil

                        _shutil.rmtree(index_dir.rstrip("/") + ".old",
                                       ignore_errors=True)
                last_activity = time.time()
                if max_batches is not None and commits >= max_batches:
                    break
                continue  # re-scan immediately: more may have landed
        if idle_hit:
            break
        time.sleep(poll_sec)
    return {"commits": commits, "n_added": n_added_total,
            "compactions": compactions, "batches": batches}


def build_from_pages(
    input_path: str | list[str],
    index_dir: str,
    *,
    extract_dir: str | None = None,
    lang_allow: tuple[str, ...] | None = ("en",),
    dedup: bool = True,
    resume: bool = True,
    extract_concurrency: int | None = None,
    strict: bool = False,
    **build_kwargs,
) -> IndexManifest:
    """Full pipeline over a PAGES corpus (input_hint shape): checkpointed
    extract → optional exact dedup → index build (SURVEY §3.4 build path).

    ``strict=True`` surfaces extractor errors instead of skip-and-count
    (ExposeErrors analog); either way the skip counters land in
    ``manifest.build_metrics['extract']``.

    Corpus stats come from the index's docs catalog, as in every build.
    A sampled (``sample_rate < 1``) ``auto_salt`` build takes its hot
    terms from the extract markers, so ``build_index`` runs no hot-term
    pass."""
    from ..sources.pages_source import (
        dup_loser_ids_from_extract,
        extract_pages,
        extracted_dataset,
        marker_stats,
    )

    t0 = time.time()
    extract_dir = extract_dir or f"{index_dir}/extracted"
    # Fused extract (ONE read of the raw corpus): text extraction + the
    # exact-dedup pair spill + (sampled auto_salt builds) the hot-term
    # sample all happen while each partition's rows are in memory — two
    # fewer full-corpus reads and two fewer pipeline barriers than
    # running them as separate stages.
    sample_rate = build_kwargs.get("sample_rate", 1.0)
    fuse_hot = (sample_rate < 1.0 and build_kwargs.get("auto_salt", False)
                and build_kwargs.get("hot_terms") is None)
    analyzer = build_kwargs.get("analyzer", "en")
    summary = extract_pages(
        input_path, extract_dir,
        lang_allow=lang_allow, resume=resume, concurrency=extract_concurrency,
        strict=strict,
        pairs=dedup,
        stats_analyzer=analyzer if fuse_hot else None,
        stats_rate=sample_rate,
    )
    summary["sec_extract"] = round(time.time() - t0, 3)
    ds = extracted_dataset(extract_dir)
    if dedup:
        # losers come from the extract-fused pairs spill (hash-sorted
        # per-partition files, range-pruned reduce tasks): no corpus
        # re-read, no separate shuffle job.  The broadcast anti-join
        # below is re-applied cheaply each time build_index re-scans.
        import ray

        t1 = time.time()
        loser_ref = ray.put(dup_loser_ids_from_extract(extract_dir))
        ds = ds.map_batches(_DropIds(loser_ref, "doc_id"),
                            batch_format="pyarrow")
        summary["sec_dedup"] = round(time.time() - t1, 3)

    if fuse_hot:
        ms = marker_stats(extract_dir)
        if ms is not None and ms["analyzer"] == analyzer:
            build_kwargs = dict(build_kwargs, hot_terms=hot_term_salts(
                ms["hot_df"], ms["n_sampled"],
                build_kwargs.get("hot_df_ratio", DEFAULT_HOT_DF_RATIO),
                build_kwargs.get("num_salts", DEFAULT_NUM_SALTS)))

    manifest = build_index(
        ds, index_dir, id_col="doc_id", url_col="url", lang_col="lang",
        resume=resume, **build_kwargs,
    )
    manifest.build_metrics["extract"] = summary
    # the extract checkpoint carries sha256(html) as its hash column
    manifest.build_metrics["hash_provenance"] = "source"
    manifest.save(index_dir)
    return manifest
