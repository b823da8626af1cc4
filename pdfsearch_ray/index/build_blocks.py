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

Two input shapes:

* ``encode_bucket`` — one row per (doc, term) (Tokenizer default mode).
* ``encode_bucket_segments`` — one row per (term, salt) per upstream
  batch with list-typed doc/tf/dl/position payloads (Tokenizer
  ``combine=True``).  The combiner shrinks the shuffle by roughly the
  batch size for head terms — the pre-aggregation the reference
  approximates with its 100-page bleve batches (bleve_pdf.go:64).

Both normalize to flat per-posting arrays and share one fully-vectorized
encoder: the WHOLE bucket is varint-encoded in three passes (doc gaps
with per-block restarts, tf, positions) and every block's payload is a
byte slice — no per-run or per-posting encode calls.  Each posting's
doc length arrives with it only to compute the block's ``max_wdl``
bound: the index stores a doc's length once, in the docs catalog.
Zipf tails make most (term, salt) runs singletons, so anything per-run
in Python is the bottleneck at web scale.

Output doc order per (term, salt) is the global doc_id sort, so the index
is bit-identical whichever input shape built it (SURVEY §7.1 determinism).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codec import BLOCK_SIZE, bm25_wdl, encode_positions_run, varint_encode_offsets


def _empty() -> pa.Table:
    from ..schemas import POSTINGS

    return POSTINGS.empty_table()


def _list_parts(col):
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return col.offsets.to_numpy(), col.values.to_numpy()


def _encode_flat(
    bucket: int,
    run_terms: np.ndarray,      # term string per run
    run_salts: np.ndarray,      # salt per run
    run_of_post: np.ndarray,    # run index per posting (grouped ascending)
    ids: np.ndarray,            # doc ids, sorted within each run
    tfs: np.ndarray,
    dls: np.ndarray,
    pos_flat: np.ndarray | None,
    pos_lens: np.ndarray | None,
    *,
    k1: float,
    b: float,
    avgdl: float,
    block_size: int,
    pre_encoded_pos: tuple[np.ndarray, np.ndarray] | None = None,
) -> pa.Table:
    """``pre_encoded_pos`` = (uint8 byte stream, int64 per-posting byte
    offsets[n+1]) in POSTING order — the wire format
    ``encode_positions_run`` produces; suppliers that carry positions
    already varint-encoded (the combine-mode spill) pass it instead of
    pos_flat/pos_lens and skip the whole re-encode."""
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
    with_pos = pos_flat is not None or pre_encoded_pos is not None
    if pre_encoded_pos is not None:
        pos_bytes, pos_off = pre_encoded_pos
    elif with_pos:
        pos_bytes, pos_off = encode_positions_run(pos_flat, pos_lens)

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
    blk_id = (rel[bstarts] // block_size).astype(np.int64)
    blk_first = ids[bstarts].astype(np.int64)
    blk_last = ids[bends - 1].astype(np.int64)
    blk_n = (bends - bstarts).astype(np.int64)

    nb = bstarts.size
    o_doc = [doc_bytes[doc_off[s] + 1 : doc_off[e]] for s, e in zip(bstarts, bends)]
    o_tf = [tf_bytes[tf_off[s] : tf_off[e]] for s, e in zip(bstarts, bends)]
    if with_pos:
        o_pos = [pos_bytes[pos_off[s] : pos_off[e]] for s, e in zip(bstarts, bends)]
    else:
        o_pos = [b""] * nb

    # per-block integrity framing: crc32 chained over the three payload
    # blobs (F2 parity — doc_positions.go:140-153 CRC-frames page blobs)
    from zlib import crc32

    o_crc = np.fromiter(
        (crc32(p, crc32(tf, crc32(d)))
         for d, tf, p in zip(o_doc, o_tf, o_pos)),
        dtype=np.int64, count=nb,
    )

    return pa.table(
        {
            "bucket": pa.array(np.full(nb, bucket, dtype=np.int32)),
            "term": pa.array(run_terms[blk_run], type=pa.string()),
            "salt": pa.array(run_salts[blk_run].astype(np.int32)),
            "block_id": pa.array(blk_id.astype(np.int32)),
            "first_doc": pa.array(blk_first),
            "last_doc": pa.array(blk_last),
            "n": pa.array(blk_n.astype(np.int32)),
            "doc_blob": pa.array(o_doc, type=pa.large_binary()),
            "tf_blob": pa.array(o_tf, type=pa.large_binary()),
            "pos_blob": pa.array(o_pos, type=pa.large_binary()),
            "max_wdl": pa.array(bmax32),
            "crc": pa.array(o_crc),
        }
    )


def encode_bucket(
    group: pa.Table,
    *,
    k1: float,
    b: float,
    avgdl: float,
    block_size: int = BLOCK_SIZE,
) -> pa.Table:
    """Encode one bucket of per-(doc, term) token rows (Tokenizer default
    output) into posting-block rows sorted by (term, salt, block_id)."""
    if group.num_rows == 0:
        return _empty()

    order = pc.sort_indices(
        group,
        sort_keys=[("term", "ascending"), ("salt", "ascending"),
                   ("doc_id", "ascending")],
    )
    t = group.take(order).combine_chunks()

    term_np = t["term"].to_numpy(zero_copy_only=False)
    salts = t["salt"].to_numpy()
    n = len(term_np)
    change = np.ones(n, dtype=bool)
    change[1:] = (term_np[1:] != term_np[:-1]) | (salts[1:] != salts[:-1])
    run_of_post = np.cumsum(change) - 1
    run_first = np.nonzero(change)[0]

    pos_offsets, pos_values = _list_parts(t["positions"])
    return _encode_flat(
        int(t["bucket"][0].as_py()),
        term_np[run_first],
        salts[run_first],
        run_of_post,
        t["doc_id"].to_numpy().astype(np.uint64),
        t["tf"].to_numpy(),
        t["dl"].to_numpy(),
        pos_values,
        np.diff(pos_offsets).astype(np.int64),
        k1=k1, b=b, avgdl=avgdl, block_size=block_size,
    )


def encode_bucket_segments(
    group: pa.Table,
    *,
    k1: float,
    b: float,
    avgdl: float,
    block_size: int = BLOCK_SIZE,
    with_positions: bool = True,
) -> pa.Table:
    """Encode one bucket of combined segment rows (Tokenizer
    ``combine=True`` output).  Segments of the same (term, salt) are
    concatenated and globally re-sorted by doc_id, so output is identical
    to the per-row path regardless of upstream batching."""
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
    dl_off, dl_val = _list_parts(t["seg_dls"])
    row_counts = np.diff(d_off).astype(np.int64)
    run_of_post = np.repeat(run_of_row, row_counts)

    ids = d_val.astype(np.uint64)
    # sort postings by (run, doc_id); segments already grouped by run, so
    # a stable sort on doc within run = lexsort
    ordr = np.lexsort((ids, run_of_post))
    ids = ids[ordr]
    # tf/dl/positions stay uint32 end-to-end: the codec consumes uint32
    # directly and the encode stage is DRAM-bandwidth-bound — every
    # avoided upcast copy is wall-time under full-node concurrency
    tfs = tf_val[ordr]
    dls = dl_val[ordr]
    run_of_post = run_of_post[ordr]

    pre_pos = None
    if with_positions:
        # Positions arrive ALREADY varint-encoded as per-posting byte
        # streams (tokenize-side encode, stages/tokenize.py): the only
        # work here is permuting byte slices into the sorted posting
        # order — ~1.3 B/position of gather traffic instead of 4 B
        # uint32 + a full re-encode, in the DRAM-bound stage.
        bl_off, bl_val = _list_parts(t["seg_pos_blen"])
        blob_col = t["seg_pos_blob"]
        chunk = (blob_col.combine_chunks()
                 if isinstance(blob_col, pa.ChunkedArray) else blob_col)
        boffs = np.frombuffer(chunk.buffers()[1], dtype=np.int64)
        boffs = boffs[chunk.offset: chunk.offset + len(chunk) + 1]
        data = np.frombuffer(chunk.buffers()[2], dtype=np.uint8)
        # per-posting absolute byte start: rows are contiguous after
        # take/combine, so the array base offset + the global exclusive
        # cumsum of per-posting byte lengths is each posting's start
        total_b = int(boffs[-1] - boffs[0])
        it = np.int32 if total_b < (1 << 31) else np.int64
        bl = bl_val.astype(it)
        starts = np.zeros(bl.size, dtype=it)
        if bl.size > 1:
            np.cumsum(bl[:-1], out=starts[1:])
        starts += it(boffs[0])
        bl_sorted = bl[ordr]
        starts_sorted = starts[ordr]
        out_excl = np.zeros(bl_sorted.size, dtype=it)
        if bl_sorted.size > 1:
            np.cumsum(bl_sorted[:-1], out=out_excl[1:])
        idx = (np.arange(total_b, dtype=it)
               - np.repeat(out_excl, bl_sorted)
               + np.repeat(starts_sorted, bl_sorted))
        pos_bytes_sorted = data[idx].tobytes()
        post_off_sorted = np.zeros(bl_sorted.size + 1, dtype=np.int64)
        post_off_sorted[1:] = np.cumsum(bl_sorted, dtype=np.int64)
        pre_pos = (pos_bytes_sorted, post_off_sorted)

    return _encode_flat(
        int(t["bucket"][0].as_py()),
        term_np[run_first_row],
        salts[run_first_row],
        run_of_post,
        ids, tfs, dls,
        None, None,
        k1=k1, b=b, avgdl=avgdl, block_size=block_size,
        pre_encoded_pos=pre_pos,
    )