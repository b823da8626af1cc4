"""Posting-block builder: one hash-bucket of token tuples → block rows.

This is the body of the core shuffle (SURVEY §2.5 A1 — the work bleve's
scorch segment builder does for the reference).  Keying the groupby on
``bucket = fnv1a64(term) % P`` instead of on raw ``term`` means Ray
dispatches ~P Python calls total rather than one per distinct term (vocab
can be 10^8+ at web scale), and each call encodes all of its terms with
vectorized numpy over one sorted Arrow table.  Head-term skew within a
bucket is bounded by the salt column (stages/tokenize.py): a salted term's
postings arrive as up to S independent, internally docID-sorted runs that
the query engine unions (term-at-a-time scoring never needs them merged).

The input is one row per (term, salt) per upstream batch with
list-typed doc/tf payloads and the batch's positions stream (Tokenizer
``combine=True``).  The combiner shrinks the shuffle by roughly the
batch size for head terms — the pre-aggregation the reference
approximates with its 100-page bleve batches (bleve_pdf.go:64).

One fully-vectorized encoder handles the WHOLE bucket: doc gaps with
per-block restarts and tf are varint-encoded in one pass each, the
positions arrive already encoded and are only permuted, and every
block's payload is a byte slice — no per-run or per-posting encode
calls.  A posting's doc length does not travel with it: the encoder
looks it up in the build's committed docs catalog (``doc_dl``), only to
compute the block's ``max_wdl`` bound (null on a single-posting block,
which a reader bounds by 1.0).  The blocks carry no bucket: the caller
writes each bucket to its own file (``manifest.postings_file_name``).
Zipf tails make most (term, salt) runs singletons, so anything per-run
in Python is the bottleneck at web scale.

Output doc order per (term, salt) is the global doc_id sort, so the index
is bit-identical however upstream batching cut the segments (SURVEY §7.1
determinism).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codec import BLOCK_SIZE, bm25_wdl, varint_encode_offsets


def _empty() -> pa.Table:
    from ..schemas import POSTINGS

    return POSTINGS.empty_table()


def _list_parts(col):
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return col.offsets.to_numpy(), col.values.to_numpy()


def _encode_flat(
    run_terms: np.ndarray,      # term string per run
    run_salts: np.ndarray,      # salt per run
    run_of_post: np.ndarray,    # run index per posting (grouped ascending)
    ids: np.ndarray,            # doc ids, sorted within each run
    tfs: np.ndarray,
    dls: np.ndarray,
    positions: tuple[bytes, np.ndarray] | None,
    *,
    k1: float,
    b: float,
    avgdl: float,
    block_size: int,
) -> pa.Table:
    """``positions`` = (byte stream, int64 per-posting byte offsets[n+1])
    in POSTING order — the wire format ``codec.encode_positions_run``
    produces — or None for an index without positions."""
    n = ids.size
    if n == 0:
        return _empty()

    run_change = np.ones(n, dtype=bool)
    run_change[1:] = run_of_post[1:] != run_of_post[:-1]
    run_start_idx = np.nonzero(run_change)[0]
    run_lens = np.diff(np.append(run_start_idx, n))
    run_start_of = np.repeat(run_start_idx, run_lens)
    rel = np.arange(n, dtype=np.int64) - run_start_of
    is_bstart = (rel % block_size) == 0
    bstarts = np.nonzero(is_bstart)[0]
    bends = np.append(bstarts[1:], n)

    gaps = np.empty(n, dtype=np.uint64)
    gaps[0] = 0
    np.subtract(ids[1:], ids[:-1], out=gaps[1:])
    gaps[bstarts] = 0  # per-block restart; first doc stored absolute

    doc_bytes, doc_off = varint_encode_offsets(gaps)
    tf_bytes, tf_off = varint_encode_offsets(tfs)

    wdl = bm25_wdl(tfs, dls, k1, b, avgdl)
    bmax = np.maximum.reduceat(wdl, bstarts)
    # store float32 rounded UP: query-side bounds are recomputed in float64,
    # so a round-to-nearest-down cast could store a value below the true
    # block max and let MaxScore wrongly prune a near-tie doc
    bmax32 = bmax.astype(np.float32)
    under = bmax32.astype(np.float64) < bmax
    if under.any():
        bmax32[under] = np.nextafter(bmax32[under], np.float32(np.inf))

    blk_run = run_of_post[bstarts]
    blk_first = ids[bstarts].astype(np.int64)
    blk_last = ids[bends - 1].astype(np.int64)
    blk_n = (bends - bstarts).astype(np.int64)

    nb = bstarts.size
    o_doc = [doc_bytes[doc_off[s] + 1 : doc_off[e]] for s, e in zip(bstarts, bends)]
    o_tf = [tf_bytes[tf_off[s] : tf_off[e]] for s, e in zip(bstarts, bends)]
    if positions is not None:
        pos_bytes, pos_off = positions
        o_pos = [pos_bytes[pos_off[s] : pos_off[e]] for s, e in zip(bstarts, bends)]
    else:
        o_pos = [b""] * nb

    return pa.table(
        {
            "term": pa.array(run_terms[blk_run], type=pa.string()),
            "salt": pa.array(run_salts[blk_run].astype(np.int32)),
            "first_doc": pa.array(blk_first),
            # null where it would repeat first_doc: one posting
            "last_doc": pa.array(blk_last, mask=blk_n == 1),
            "n": pa.array(blk_n.astype(np.int32)),
            "doc_blob": pa.array(o_doc, type=pa.large_binary()),
            "tf_blob": pa.array(o_tf, type=pa.large_binary()),
            "pos_blob": pa.array(o_pos, type=pa.large_binary()),
            # null on one posting: a reader bounds it by 1.0, the
            # most bm25_wdl can be
            "max_wdl": pa.array(bmax32, mask=blk_n == 1),
        }
    )


def catalog_doc_lengths(docs_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """(doc ids sorted, their dl) over every file of a committed docs
    catalog — the ``doc_dl`` that ``encode_bucket_segments`` looks the
    postings' doc lengths up in."""
    import glob

    import pyarrow.parquet as pq

    parts = [pq.ParquetFile(f).read(columns=["doc_id", "dl"],
                                    use_threads=False)
             for f in sorted(glob.glob(f"{docs_dir}/*.parquet"))]
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
    t = pa.concat_tables(parts)
    ids = t["doc_id"].to_numpy()
    order = np.argsort(ids, kind="stable")
    return ids[order], t["dl"].to_numpy()[order]


def encode_bucket_segments(
    group: pa.Table,
    *,
    doc_dl: tuple[np.ndarray, np.ndarray],
    k1: float,
    b: float,
    avgdl: float,
    block_size: int = BLOCK_SIZE,
    with_positions: bool = True,
) -> pa.Table:
    """Encode one bucket of combined segment rows (Tokenizer
    ``combine=True`` output) into posting-block rows sorted by (term,
    salt, first_doc).  Segments of the same (term, salt) are concatenated
    and globally re-sorted by doc_id, so the output does not depend on
    upstream batching.  ``doc_dl`` = (sorted doc ids, their dl) of the
    build's docs catalog (``catalog_doc_lengths``); every posting's doc
    must be in it."""
    if group.num_rows == 0:
        return _empty()

    order = pc.sort_indices(
        group, sort_keys=[("term", "ascending"), ("salt", "ascending")]
    )
    t = group.take(order).combine_chunks()

    term_np = t["term"].to_numpy(zero_copy_only=False)
    salts = t["salt"].to_numpy()
    n_rows = t.num_rows
    row_change = np.ones(n_rows, dtype=bool)
    row_change[1:] = (term_np[1:] != term_np[:-1]) | (salts[1:] != salts[:-1])
    run_of_row = np.cumsum(row_change) - 1
    run_first_row = np.nonzero(row_change)[0]

    d_off, d_val = _list_parts(t["seg_docs"])
    tf_off, tf_val = _list_parts(t["seg_tfs"])
    row_counts = np.diff(d_off).astype(np.int64)
    run_of_post = np.repeat(run_of_row, row_counts)

    cat_ids, cat_dl = doc_dl
    at = np.searchsorted(cat_ids, d_val)
    if at.size and (at.max() >= cat_ids.size
                    or not np.array_equal(cat_ids[at], d_val)):
        raise ValueError("a posting's doc is not in the docs catalog")

    ids = d_val.astype(np.uint64)
    # sort postings by (run, doc_id); segments already grouped by run, so
    # a stable sort on doc within run = lexsort
    ordr = np.lexsort((ids, run_of_post))
    ids = ids[ordr]
    # tf/dl stay uint32 end-to-end: the codec consumes uint32 directly
    # and the encode stage is DRAM-bandwidth-bound — every avoided
    # upcast copy is wall-time under full-node concurrency
    tfs = tf_val[ordr]
    dls = cat_dl[at[ordr]]
    run_of_post = run_of_post[ordr]

    positions = None
    if with_positions:
        # Positions arrive ALREADY varint-encoded (tokenize-side
        # encode, stages/tokenize.py), one stream per segment row with
        # each posting's tf values: the only work here is permuting
        # byte slices into the sorted posting order — ~1.3 B/position
        # of gather traffic instead of 4 B uint32 + a full re-encode,
        # in the DRAM-bound stage.
        blob_col = t["seg_pos_blob"]
        chunk = (blob_col.combine_chunks()
                 if isinstance(blob_col, pa.ChunkedArray) else blob_col)
        boffs = np.frombuffer(chunk.buffers()[1], dtype=np.int64)
        boffs = boffs[chunk.offset: chunk.offset + len(chunk) + 1]
        data = np.frombuffer(chunk.buffers()[2], dtype=np.uint8)
        # rows are contiguous after take/combine, and so are their
        # postings: each posting ends at the terminal byte (high bit
        # clear) of its tf-th value, and starts where the one before
        # it ends
        total_b = int(boffs[-1] - boffs[0])
        it = np.int32 if total_b < (1 << 31) else np.int64
        val_end = np.flatnonzero(
            data[boffs[0]:boffs[-1]] < 128).astype(it) + 1
        n_vals = np.cumsum(tf_val, dtype=np.int64)
        if val_end.size != (int(n_vals[-1]) if n_vals.size else 0):
            raise ValueError(
                f"positions stream holds {val_end.size} values for "
                f"{int(n_vals[-1]) if n_vals.size else 0} positions")
        ends = val_end[n_vals - 1]
        bl = np.diff(ends, prepend=it(0))
        starts = ends - bl + it(boffs[0])
        bl_sorted = bl[ordr]
        starts_sorted = starts[ordr]
        out_excl = np.zeros(bl_sorted.size, dtype=it)
        if bl_sorted.size > 1:
            np.cumsum(bl_sorted[:-1], out=out_excl[1:])
        idx = (np.arange(total_b, dtype=it)
               - np.repeat(out_excl, bl_sorted)
               + np.repeat(starts_sorted, bl_sorted))
        pos_off_sorted = np.zeros(bl_sorted.size + 1, dtype=np.int64)
        pos_off_sorted[1:] = np.cumsum(bl_sorted, dtype=np.int64)
        positions = (data[idx].tobytes(), pos_off_sorted)

    return _encode_flat(
        term_np[run_first_row],
        salts[run_first_row],
        run_of_post,
        ids, tfs, dls, positions,
        k1=k1, b=b, avgdl=avgdl, block_size=block_size,
    )
