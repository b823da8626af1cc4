"""Tokenize stage: text → per-(doc, term) token tuples.

The actor-pool analog of the reference's extract worker + bleve analyzer
(ST1/M5: internal/doclib/index_pdfs.go:77-95 worker pool feeding the `en`
analyzer configured at bleve_glue.go:42-61).  A callable class so the
compiled regexes / stopword set / stem cache / hot-term set are built once
per actor (``__init__``), not once per batch; used as

    ds.map_batches(Tokenizer, batch_format="pyarrow", concurrency=N)

The stage performs the *partial aggregation* that keeps the shuffle sane:
tf and positions are combined per (doc, term) here, so the groupby that
builds postings only ever sees one row per (doc, term) — the rebuild's
version of the reference's 100-page bleve batching (bleve_pdf.go:64).

Shuffle keys are precomputed here too:
* ``bucket = fnv1a64(term) % num_buckets`` — the posting-build partition
  key (query-time pruning recomputes it from the query term).
* ``salt`` — 0 for ordinary terms; ``mix64(doc_id) % salt`` for terms in
  the broadcast hot-term set, splitting Zipfian head-term groups into
  bounded sub-groups (north_rule's explicit skew handling).

The same pass writes the docs catalog (``catalog=``): each batch's
(doc_id, url, hash, lang, dl[, text]) rows, ``dl`` being the doc length
the pass has just counted, go to one parquet file per batch — the way
extract writes its ``pairs`` side file — so the build reads the corpus
once for both the postings and the catalog.
"""

from __future__ import annotations

import os
from zlib import crc32

import numpy as np
import pyarrow as pa

from ..analysis.analyzer import ANALYZER_VERSION, get_analyzer
from ..functions.hashing import content_hash, fnv1a64_str, mix64

DEFAULT_NUM_BUCKETS = 64
# most rows in one docs-catalog row group: hydration reads a hit's whole
# row group, text included, so row groups stay small (an extract
# partition of the benchmark corpus, ~850 docs, becomes two)
CATALOG_ROW_GROUP = 512

# Per-worker-process Tokenizer memo for the task-pool path (see
# tokenize_batch).  Keyed by the full config so differently-configured
# pipelines sharing a worker never collide.
_WORKER_TOKENIZERS: dict = {}


def _cfg_key(cfg: dict) -> tuple:
    return tuple(
        (k, tuple(sorted(v.items())) if isinstance(v, dict) else v)
        for k, v in sorted(cfg.items())
    )


def tokenize_batch(batch: pa.Table, cfg: dict) -> pa.Table:
    """Task-pool entry point: ``map_batches(partial(tokenize_batch, cfg=...))``.

    Tokenizer state (compiled regexes, stopword set, stem cache, hot-term
    set) is built once per worker PROCESS via a module-level memo — the
    same once-per-worker semantics as an actor pool, without paying actor
    startup: Ray's task workers are already warm from earlier stages,
    while a fresh actor pool spawns+imports one process per slot before
    the first batch runs (measured ~2x stage wall-time on a 32-cpu build).
    Use the Tokenizer class with ``concurrency=`` when the stage needs
    pinned resources; semantics are identical."""
    key = _cfg_key(cfg)
    tok = _WORKER_TOKENIZERS.get(key)
    if tok is None:
        tok = _WORKER_TOKENIZERS[key] = Tokenizer(**cfg)
    return tok(batch)


class Tokenizer:
    def __init__(
        self,
        analyzer: str = "en",
        text_col: str = "text",
        id_col: str = "doc_id",
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        hot_terms: dict[str, int] | None = None,
        with_positions: bool = True,
        combine: bool = False,
        catalog: dict | None = None,
    ):
        self.analyze = get_analyzer(analyzer)
        self.analyzer_name = analyzer
        self.text_col = text_col
        self.id_col = id_col
        self.num_buckets = num_buckets
        self.hot_terms = hot_terms or {}
        self.with_positions = with_positions
        # combine=True emits ONE segment row per (term, salt) per batch
        # (docs/tfs as list columns, positions as one encoded stream) —
        # the combiner that shrinks the posting shuffle by ~batch_size
        # for head terms.
        self.combine = combine
        # catalog = {"dir", "url_col", "lang_col", "store_text"}: write
        # each batch's docs-catalog rows into "dir" (write_catalog)
        self.catalog = catalog
        self._bucket_cache: dict[str, int] = {}
        self.version = ANALYZER_VERSION

    def _bucket(self, term: str) -> int:
        b = self._bucket_cache.get(term)
        if b is None:
            b = fnv1a64_str(term) % self.num_buckets
            if len(self._bucket_cache) < (1 << 20):
                self._bucket_cache[term] = b
        return b

    def _bucket_salted(self, term: str, salt: int) -> int:
        """Hot terms spread across buckets BY SHARD: a salted run lives in
        bucket ``hash(term#salt)``, not ``hash(term)``.  Without this every
        salt shard of a head term lands in the same encode bucket and the
        fattest bucket stragglers the whole encode stage — salting must
        balance the shuffle key, not just the group granularity.  The
        query side recomputes shard buckets from the manifest's
        salt_spec."""
        if term not in self.hot_terms:
            return self._bucket(term)
        return fnv1a64_str(f"{term}#{salt}") % self.num_buckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        path = self._combine_vectorized if self.combine else self._python_path
        out, dl = path(batch)
        if self.catalog is not None:
            c = self.catalog
            write_catalog(catalog_rows(batch, dl, self.id_col, self.text_col,
                                       c["url_col"], c["lang_col"],
                                       c["store_text"]), c["dir"],
                          hash_scheme(batch))
        return out

    def _combine_vectorized(self, batch: pa.Table
                            ) -> tuple[pa.Table, np.ndarray]:
        """Batch-vectorized combine path (the indexing hot loop).

        Replaces per-doc Python dict aggregation with array passes:
        regex findall per doc (the only per-doc Python left) → ONE
        pandas factorize over the batch's raw tokens → the full
        normalize chain applied once per UNIQUE raw token (Zipf: batch
        vocabulary ≪ token count) → ONE lexsort by (term, salt, doc,
        position) → run-length boundaries give postings and segments
        directly, positions already flat in wire order for the
        vectorized varint encoder.  Output is bit-identical to the
        Python path (tests/test_tokenize_vec.py equivalence property);
        the point is DRAM traffic — compact int arrays instead of
        ~3 Python objects per token (BASELINE.md: tokenize is the
        bandwidth-bound stage at full node width).  Returns the token
        segments and each row's doc length (its kept-token count)."""
        import pandas as pd

        texts = batch[self.text_col].to_pylist()
        doc_ids_np = batch[self.id_col].to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_docs = len(texts)
        en = self.analyzer_name == "en"
        if en:
            from ..analysis.analyzer import _TOKEN_RE

            tokenize = _TOKEN_RE.findall
        else:
            tokenize = self.analyze

        raw_all: list[str] = []
        counts = np.zeros(n_docs, dtype=np.int64)
        extend = raw_all.extend
        for i, text in enumerate(texts):
            if not text:
                continue  # empty-page filter (bleve_pdf.go:309-312)
            toks = tokenize(text)
            extend(toks)
            counts[i] = len(toks)
        total = len(raw_all)
        if total == 0:
            return self._empty_combine_table(), np.zeros(n_docs, np.int64)

        codes, uniq = pd.factorize(
            np.asarray(raw_all, dtype=object), sort=False)
        del raw_all
        if en:
            from ..analysis.analyzer import (
                _MISSING,
                _RAW_TERM_CACHE,
                _final_term,
            )

            cache_get = _RAW_TERM_CACHE.get
            final = []
            for u in uniq:
                t = cache_get(u, _MISSING)
                if t is _MISSING:
                    t = _final_term(u)
                final.append(t)
        else:
            final = list(uniq)
        # lexicographically-ranked final vocabulary: segment order must
        # match the Python path's sorted(seg.keys())
        kept_terms = sorted({t for t in final if t is not None})
        term_rank = {t: j for j, t in enumerate(kept_terms)}
        code_map = np.fromiter(
            (term_rank[t] if t is not None else -1 for t in final),
            dtype=np.int64, count=len(final))

        tcode_tok = code_map[codes]
        doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        doc_tok_start = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(counts, out=doc_tok_start[1:])
        # 1-based pre-stop-removal positions (bleve semantics)
        pos_tok = np.arange(total, dtype=np.int64) \
            - doc_tok_start[doc_idx] + 1
        keep = tcode_tok >= 0
        tcode = tcode_tok[keep]
        d = doc_idx[keep]
        p = pos_tok[keep]
        dl_doc = np.bincount(d, minlength=n_docs).astype(np.int64)
        if tcode.size == 0:
            return self._empty_combine_table(), dl_doc

        hot = self.hot_terms
        if hot:
            s_of_code = np.fromiter(
                (hot.get(t, 0) for t in kept_terms),
                dtype=np.int64, count=len(kept_terms))
            salt_base = mix64(doc_ids_np.astype(np.uint64))
            s_tok = s_of_code[tcode]
            salt_tok = np.where(
                s_tok > 0,
                (salt_base[d] % np.maximum(s_tok, 1).astype(np.uint64))
                .astype(np.int64),
                0)
        else:
            salt_tok = np.zeros(tcode.size, dtype=np.int64)

        # sort by (term, salt, doc, position).  One packed-int64 argsort
        # when the ranges fit (always, for real batches) — a single-key
        # radix-ish sort beats a 4-pass lexsort; lexsort fallback keeps
        # correctness for degenerate ranges.
        b_p = max(int(p.max()), 1).bit_length()
        b_d = max(n_docs - 1, 1).bit_length()
        b_s = max(int(salt_tok.max()), 1).bit_length()
        b_t = max(len(kept_terms) - 1, 1).bit_length()
        if b_p + b_d + b_s + b_t <= 62:
            packed = (((tcode << b_s | salt_tok) << b_d | d) << b_p) | p
            order = np.argsort(packed, kind="stable")
        else:
            order = np.lexsort((p, d, salt_tok, tcode))
        tc = tcode[order]
        dd = d[order]
        pp = p[order]
        ss = salt_tok[order]
        # posting boundaries: change in (term, salt, doc)
        chg = np.empty(tc.size, dtype=bool)
        chg[0] = True
        chg[1:] = ((tc[1:] != tc[:-1]) | (ss[1:] != ss[:-1])
                   | (dd[1:] != dd[:-1]))
        post_start = np.nonzero(chg)[0]
        tf = np.diff(np.append(post_start, tc.size)).astype(np.int64)
        tc_p = tc[post_start]
        ss_p = ss[post_start]
        dd_p = dd[post_start]
        # segment boundaries: change in (term, salt) among postings
        chg_seg = np.empty(tc_p.size, dtype=bool)
        chg_seg[0] = True
        chg_seg[1:] = (tc_p[1:] != tc_p[:-1]) | (ss_p[1:] != ss_p[:-1])
        seg_start = np.nonzero(chg_seg)[0]
        n_post = tc_p.size
        seg_tc = tc_p[seg_start]
        seg_salt = ss_p[seg_start]
        seg_bounds = np.append(seg_start, n_post).astype(np.int32)

        buckets = np.empty(seg_tc.size, dtype=np.int32)
        for j in range(seg_tc.size):
            buckets[j] = self._bucket_salted(
                kept_terms[seg_tc[j]], int(seg_salt[j]))
        cols = {
            "term": pa.array([kept_terms[c] for c in seg_tc],
                             type=pa.string()),
            "salt": pa.array(seg_salt.astype(np.int32), type=pa.int32()),
            "bucket": pa.array(buckets, type=pa.int32()),
            "seg_docs": pa.ListArray.from_arrays(
                pa.array(seg_bounds),
                pa.array(doc_ids_np[dd_p], type=pa.int64())),
            "seg_tfs": pa.ListArray.from_arrays(
                pa.array(seg_bounds),
                pa.array(tf.astype(np.uint32), type=pa.uint32())),
        }
        if self.with_positions:
            from ..index.codec import encode_positions_run

            blob, post_off = encode_positions_run(
                pp.astype(np.uint32), tf)
            byte_bounds = post_off[seg_bounds.astype(np.int64)]
            cols["seg_pos_blob"] = pa.Array.from_buffers(
                pa.large_binary(), seg_tc.size,
                [None, pa.py_buffer(byte_bounds.tobytes()),
                 pa.py_buffer(blob)])
        return pa.table(cols), dl_doc

    def _empty_combine_table(self) -> pa.Table:
        cols = {
            "term": pa.array([], type=pa.string()),
            "salt": pa.array([], type=pa.int32()),
            "bucket": pa.array([], type=pa.int32()),
            "seg_docs": pa.array([], type=pa.list_(pa.int64())),
            "seg_tfs": pa.array([], type=pa.list_(pa.uint32())),
        }
        if self.with_positions:
            cols["seg_pos_blob"] = pa.array([], type=pa.large_binary())
        return pa.table(cols)

    def _python_path(self, batch: pa.Table) -> tuple[pa.Table, np.ndarray]:
        texts = batch[self.text_col].to_pylist()
        doc_ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        dls = np.zeros(len(texts), dtype=np.int64)

        out_term: list[str] = []
        out_doc: list[int] = []
        out_tf: list[int] = []
        out_dl: list[int] = []
        out_pos: list[list[int]] = []
        out_salt: list[int] = []
        out_bucket: list[int] = []

        hot = self.hot_terms
        en = self.analyzer_name == "en"
        if en:
            from ..analysis.analyzer import analyze_en_pos
        # combine mode: (term, salt) → [doc_ids, tfs, flat_positions]
        seg: dict[tuple[str, int], list[list[int]]] = {}
        for row, (text, doc_id) in enumerate(zip(texts, doc_ids)):
            if not text:
                continue  # empty-page filter (bleve_pdf.go:309-312)
            agg: dict[str, list[int]] = {}
            dl = 0
            if en:
                for term, position in analyze_en_pos(text):
                    dl += 1
                    agg.setdefault(term, []).append(position)
            else:
                for i, term in enumerate(self.analyze(text)):
                    dl += 1
                    agg.setdefault(term, []).append(i + 1)
            if dl == 0:
                continue
            dls[row] = dl
            salt_base = int(mix64(np.asarray([doc_id], dtype=np.uint64))[0])
            if self.combine:
                for term, positions in agg.items():
                    s = hot.get(term, 0)
                    key = (term, salt_base % s if s else 0)
                    e = seg.get(key)
                    if e is None:
                        e = seg[key] = [[], [], []]
                    e[0].append(int(doc_id))
                    e[1].append(len(positions))
                    if self.with_positions:
                        e[2].extend(positions)
            else:
                for term, positions in agg.items():
                    out_term.append(term)
                    out_doc.append(int(doc_id))
                    out_tf.append(len(positions))
                    out_dl.append(dl)
                    out_pos.append(positions if self.with_positions else [])
                    s = hot.get(term, 0)
                    salt = salt_base % s if s else 0
                    out_salt.append(salt)
                    out_bucket.append(self._bucket_salted(term, salt))

        if self.combine:
            keys = sorted(seg.keys())
            cols = {
                "term": pa.array([k[0] for k in keys], type=pa.string()),
                "salt": pa.array([k[1] for k in keys], type=pa.int32()),
                "bucket": pa.array(
                    [self._bucket_salted(k[0], k[1]) for k in keys],
                    type=pa.int32()),
                "seg_docs": pa.array([seg[k][0] for k in keys],
                                     type=pa.list_(pa.int64())),
                "seg_tfs": pa.array([seg[k][1] for k in keys],
                                    type=pa.list_(pa.uint32())),
            }
            if self.with_positions:
                # Positions leave the tokenizer ALREADY varint-encoded,
                # one stream per segment row holding each posting's first
                # position and gaps (the wire format of
                # index/codec.py:encode_positions_run; a posting's tf is
                # its count), ONE vectorized encode call per batch.  The
                # encode stage then only permutes byte slices instead of
                # re-encoding every position: this moves ~2/3 of the
                # posting-payload memory traffic out of the
                # DRAM-bandwidth-bound encode stage into this CPU-bound
                # (near-linearly-scaling) stage, and shrinks the shuffle
                # bytes ~3x (varint ≈1.3 B/position vs uint32).
                from itertools import chain

                from ..index.codec import encode_positions_run

                tf_parts = [seg[k][1] for k in keys]
                n_post_total = sum(len(p) for p in tf_parts)
                all_lens = np.fromiter(chain.from_iterable(tf_parts),
                                       np.int64, count=n_post_total)
                all_flat = np.fromiter(
                    chain.from_iterable(seg[k][2] for k in keys),
                    np.uint32, count=int(all_lens.sum()))
                blob, post_off = encode_positions_run(all_flat, all_lens)
                # zero-copy column assembly: segment boundaries in posting
                # space → byte space via post_off; no Python list round-trip
                post_bounds = np.zeros(len(keys) + 1, dtype=np.int64)
                np.cumsum(
                    np.fromiter((len(seg[k][0]) for k in keys), np.int64,
                                count=len(keys)),
                    out=post_bounds[1:])
                byte_bounds = post_off[post_bounds]
                cols["seg_pos_blob"] = pa.Array.from_buffers(
                    pa.large_binary(), len(keys),
                    [None, pa.py_buffer(byte_bounds.tobytes()),
                     pa.py_buffer(blob)])
            return pa.table(cols), dls

        return pa.table(
            {
                "term": pa.array(out_term, type=pa.string()),
                "salt": pa.array(out_salt, type=pa.int32()),
                "bucket": pa.array(out_bucket, type=pa.int32()),
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "tf": pa.array(out_tf, type=pa.uint32()),
                "dl": pa.array(out_dl, type=pa.uint32()),
                "positions": pa.array(out_pos, type=pa.list_(pa.uint32())),
            }
        ), dls


def hash_scheme(batch: pa.Table) -> str:
    """How ``catalog_rows`` makes the batch's ``hash`` column:
    ``"source"`` when it passes the source's own hash through,
    ``"text"`` when it computes sha256(text)."""
    return "source" if "hash" in batch.schema.names else "text"


def catalog_rows(batch: pa.Table, dl: np.ndarray, id_col: str,
                 text_col: str, url_col: str | None, lang_col: str | None,
                 store_text: bool) -> pa.Table:
    """A batch's docs-catalog rows (createFileDesc analog,
    file_desc.go:51-68), sorted by doc_id: ``dl[i]`` is row i's doc
    length.  One identity per doc: when the source already carries a
    content hash (the extract checkpoint stores sha256(html), the
    file-level identity M1 requires), it passes through, so the catalog
    and the dedup path agree; sha256(text) is only the fallback for
    hash-less sources."""
    n = batch.num_rows
    if hash_scheme(batch) == "source":
        hash_arr = batch["hash"]
    else:
        hash_arr = pa.array(
            [content_hash((t or "").encode("utf-8"))
             for t in batch[text_col].to_pylist()], type=pa.string())
    cols = {
        "doc_id": batch[id_col].cast(pa.int64()),
        "url": batch[url_col] if url_col else pa.array([""] * n),
        "hash": hash_arr,
        "lang": batch[lang_col] if lang_col else pa.array([""] * n),
        "dl": pa.array(np.asarray(dl, dtype=np.uint32), type=pa.uint32()),
    }
    if store_text:
        cols["text"] = batch[text_col]
    return pa.table(cols).sort_by("doc_id")


def write_catalog(rows: pa.Table, out_dir: str, scheme: str) -> None:
    """Write one batch's sorted catalog ``rows`` into ``out_dir`` under a
    name fixed by its content (a retried task rewrites the same file)
    and ending in ``scheme``, the batch's ``hash_scheme``
    (``catalog_hash_scheme`` reads it back), committed by tmp + rename.
    Row groups follow the doc_id partition
    prefix — the extract source numbers docs ``(partition << 32) | row``,
    and a row group never spans two partitions — and a partition's rows
    are split evenly into row groups of at most ``CATALOG_ROW_GROUP``."""
    import pyarrow.parquet as pq

    from ..index.codec import INDEX_WRITE_OPTIONS

    if not rows.num_rows:
        return
    ids = rows["doc_id"].to_numpy(zero_copy_only=False)
    key = crc32(repr(rows["hash"].to_pylist()).encode(),
                crc32(ids.tobytes()))
    name = (f"docs-{int(ids[0]) & ((1 << 64) - 1):016x}-{key:08x}"
            f"-{scheme}.parquet")
    tmp = os.path.join(out_dir, f".{name}.tmp.{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    part = ids >> 32
    cuts = [0, *(np.flatnonzero(part[1:] != part[:-1]) + 1).tolist(),
            ids.size]
    with pq.ParquetWriter(tmp, rows.schema,
                          **INDEX_WRITE_OPTIONS["docs"]) as w:
        for a, b in zip(cuts[:-1], cuts[1:]):
            k = -(-(b - a) // CATALOG_ROW_GROUP)
            edges = [a + (b - a) * i // k for i in range(k + 1)]
            for lo, hi in zip(edges[:-1], edges[1:]):
                w.write_table(rows.slice(lo, hi - lo))
    os.replace(tmp, os.path.join(out_dir, name))


def catalog_hash_scheme(docs_dir: str) -> str | None:
    """The ``hash_scheme`` every file of the catalog in ``docs_dir`` was
    written with (its name's last part): ``"source"`` or ``"text"``,
    ``"unknown"`` when they differ, None when no file names one (an
    empty catalog)."""
    import glob

    schemes = {os.path.basename(f)[:-len(".parquet")].rsplit("-", 1)[-1]
               for f in glob.glob(f"{docs_dir}/docs-*.parquet")}
    schemes &= {"source", "text"}
    if not schemes:
        return None
    return schemes.pop() if len(schemes) == 1 else "unknown"
