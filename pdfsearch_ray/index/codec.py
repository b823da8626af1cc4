"""Posting-list codec: delta-encoded docID gaps + LEB128 varint blocks.

The reference delegates its posting storage to bleve's scorch segment
format (vellum FST + roaring bitmaps; /root/reference/go.mod:4,10).  The
rebuild's format — mandated by the north rule — is its own: per-term
posting lists are cut into fixed-size blocks (``BLOCK_SIZE`` postings),
each block stored as one Arrow row carrying

    (term, salt, block_id, first_doc, last_doc, n, doc_blob, tf_blob,
     pos_blob, max_wdl, crc)

where ``doc_blob`` is the varint stream of docID deltas within the block,
``tf_blob`` the varint term-frequencies, ``pos_blob`` the per-posting
position lists (``encode_positions_run``) and ``max_wdl`` the block's
maximum *idf-free* BM25 partial score
``tf / (tf + k1*(1 - b + b*dl/avgdl))`` — multiplied by the term's idf at
query time it is the block upper bound that block-max WAND skips on.
A document's length ``dl`` is stored once, in the ``dl`` column of the
docs catalog (the reference's one ``fieldNorm`` per document, SURVEY
§7.1), not on each of its postings: scorers look it up by doc id.

On disk the block rows, the docs catalog and the tombstone sets are
parquet files written under ``INDEX_WRITE_OPTIONS`` (below): zstd-9,
statistics only on the columns a reader prunes on, one chosen encoding
per column and no embedded Arrow schema, so the blobs read back as
``binary`` whatever type they were written from.

Both encode and decode are numpy-vectorized (no per-value Python loop):
encode computes per-value byte widths by threshold comparison and
scatters 7-bit groups per byte-position; decode locates terminal bytes
(high bit clear) and gathers per byte-position.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128

# Parquet writer policy for every committed index file: the docs catalog,
# the posting blocks above and the tombstone sets, whether written by a
# base build, an append segment or a compaction.  zstd at level 9: the
# files are bucket-partitioned and term-grouped, so a strong general
# codec finds the repeats.  An index is written once and read on every
# cold query, and zstd decodes at the same speed at every level, so the
# level costs only build CPU; level 9 is the knee of the size curve
# (level 12 doubles the postings compression time for 3% fewer bytes).
# Row-group min/max statistics only on the columns a reader prunes on —
# postings: bucket and term (bucket/term row-group pruning, the term
# pushdown filters of prefix, range and completion expansion) and
# first_doc/last_doc (doc-range shard pruning); docs and tombstones:
# doc_id (hydration's row-group index, shard planning).  A statistic no
# reader looks at is footer and page-header bytes.
#
# Every column has an explicit encoding, chosen by one rule: of plain,
# dictionary, DELTA_BINARY_PACKED, DELTA_LENGTH_BYTE_ARRAY and
# DELTA_BYTE_ARRAY, a candidate replaces the earlier choice only if it is
# smaller on both a 6k- and a 24k-page build of the benchmark corpus, a
# read of its row groups the way the serving handle reads them is no
# slower, and DuckDB 1.0 reads the file; of those, the one with the
# fewest bytes over both builds wins (``python tools/index_bytes.py
# --sweep INDEX_DIR`` prints every candidate's bytes).  The outcome:
#   postings    block_id       DELTA_BINARY_PACKED
#               every other    plain — bucket, term, salt and n lost
#                              their dictionaries (nearly every block
#                              row has its own term, so a dictionary is
#                              a second copy)
#   docs        doc_id         DELTA_BINARY_PACKED (sorted in each file)
#               hash           DELTA_LENGTH_BYTE_ARRAY
#               every other    plain — lang lost its dictionary
#   tombstones  doc_id         DELTA_BINARY_PACKED (sorted)
# Smaller but slower to read under pyarrow 16, so left plain:
# DELTA_LENGTH_BYTE_ARRAY on tf_blob and pos_blob and a dictionary on
# max_wdl and dl (each read 2-17% slower).  ``text`` is left plain: a
# hydration decodes a text row group on every query, and
# DELTA_BYTE_ARRAY's gain on it comes from the fixture's shared "page N"
# prefixes.  BYTE_STREAM_SPLIT on the integer columns would be smaller
# still, but DuckDB 1.0 refuses it on anything but FLOAT and DOUBLE.
#
# No file embeds pyarrow's Arrow schema (``store_schema=False``, about
# 900 B per postings file): a file's types are its parquet types, so a
# ``large_binary`` blob reads back as ``binary`` (``index/arrays.py``
# takes either offset width).  Readers never depend on the policy —
# parquet is self-describing and does not record the zstd level, so files
# written with other settings keep serving beside these.
_ZSTD_9 = {"compression": "zstd", "compression_level": 9,
           "use_dictionary": False, "store_schema": False}
INDEX_WRITE_OPTIONS = {
    "postings": {
        **_ZSTD_9,
        "write_statistics": ("bucket", "term", "first_doc", "last_doc"),
        "column_encoding": {
            "bucket": "PLAIN", "term": "PLAIN", "salt": "PLAIN",
            "block_id": "DELTA_BINARY_PACKED", "first_doc": "PLAIN",
            "last_doc": "PLAIN", "n": "PLAIN", "doc_blob": "PLAIN",
            "tf_blob": "PLAIN", "pos_blob": "PLAIN", "max_wdl": "PLAIN",
            "crc": "PLAIN",
        },
    },
    "docs": {
        **_ZSTD_9,
        "write_statistics": ("doc_id",),
        "column_encoding": {
            "doc_id": "DELTA_BINARY_PACKED", "url": "PLAIN",
            "hash": "DELTA_LENGTH_BYTE_ARRAY", "lang": "PLAIN",
            "dl": "PLAIN", "text": "PLAIN",
        },
    },
    "tombstones": {
        **_ZSTD_9,
        "write_statistics": ("doc_id",),
        "column_encoding": {"doc_id": "DELTA_BINARY_PACKED"},
    },
}

_THRESHOLDS = [np.uint64(1) << np.uint64(7 * k) for k in range(1, 10)]


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a 1-D array of non-negative ints (vectorized)."""
    return varint_encode_offsets(values)[0]


def varint_encode_offsets(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-encode; also return the byte offset of every value (length
    n+1).  Lets a caller encode a whole posting run ONCE and slice
    per-block byte ranges out of the stream — no per-block encode calls.

    Bandwidth-aware: works in uint32 when every value fits (the common
    case for positions/tf/dl — halves memory traffic; the encode stage is
    DRAM-bound under full-node concurrency), accepts uint32 input
    WITHOUT a round-trip through uint64 (no full-array upcast copy), and
    short-circuits to a single cast when every value is < 128 (1-byte
    varints)."""
    if values.dtype == np.uint32:
        arr = np.ascontiguousarray(values)
    else:
        arr = np.ascontiguousarray(values, dtype=np.uint64)
    if arr.size == 0:
        return b"", np.zeros(1, dtype=np.int64)
    mx = int(arr.max())
    if mx < 128:
        out = arr.astype(np.uint8)
        return out.tobytes(), np.arange(arr.size + 1, dtype=np.int64)
    if mx < (1 << 32):
        if arr.dtype != np.uint32:
            arr = arr.astype(np.uint32)
        seven = np.uint32(7)
        mask7 = np.uint32(0x7F)
    else:
        seven = np.uint64(7)
        mask7 = np.uint64(0x7F)
    # int32 internals while the stream fits (always, for per-bucket
    # runs): the scatter loop's index temporaries are the stage's
    # biggest allocations, and halving them is wall-time under
    # full-node concurrency
    small = arr.size * 10 < (1 << 31)
    idx_t = np.int32 if small else np.int64
    nbytes = np.ones(arr.shape, dtype=np.int8)
    for t in _THRESHOLDS:
        if int(t) > mx:
            break
        nbytes += arr >= arr.dtype.type(t)
    ends = np.cumsum(nbytes, dtype=idx_t)
    starts = ends - nbytes
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    maxb = int(nbytes.max())
    for k in range(maxb):
        mask = nbytes > k
        vals = (arr[mask] >> (seven * arr.dtype.type(k))) & mask7
        cont = (nbytes[mask] > k + 1).astype(np.uint8) << 7
        out[starts[mask] + k] = vals.astype(np.uint8) | cont
    offsets = np.empty(arr.size + 1, dtype=np.int64)
    offsets[0] = 0
    offsets[1:] = ends
    return out.tobytes(), offsets


def encode_positions_run(
    pos_flat: np.ndarray, pos_lens: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Vectorized positions encoding for a whole run.

    Stream per posting: varint(count), varint(first_pos), varint(gaps...).
    Returns (bytes, byte_offset_per_posting[n+1]) so any block's positions
    slice is bytes[off[a]:off[b]].  Wire-compatible with
    encode_positions/decode_positions.
    """
    lens = np.ascontiguousarray(pos_lens, dtype=np.int64)
    n = lens.size
    if n == 0:
        return b"", np.zeros(1, dtype=np.int64)
    # positions are uint32 by schema: stay in 32 bits end-to-end (the
    # positions stream is the fattest array the encode stage touches and
    # the stage is DRAM-bandwidth-bound at full node concurrency)
    flat = np.ascontiguousarray(pos_flat, dtype=np.uint32)
    p_start = np.empty(n + 1, dtype=np.int64)
    p_start[0] = 0
    np.cumsum(lens, out=p_start[1:])
    # per-position gaps with restart at each posting's first position
    gaps = np.empty_like(flat)
    if flat.size:
        gaps[0] = flat[0]
        np.subtract(flat[1:], flat[:-1], out=gaps[1:])
        starts_nonempty = p_start[:-1][lens > 0]
        gaps[starts_nonempty] = flat[starts_nonempty]
    # interleave: out value stream has lens[i] at stream_start[i], then gaps
    total = int(flat.size + n)
    stream = np.empty(total, dtype=np.uint32)
    stream_start = p_start[:-1] + np.arange(n)  # each posting adds 1 count slot
    stream[stream_start] = lens.astype(np.uint32)
    mask = np.ones(total, dtype=bool)
    mask[stream_start] = False
    stream[mask] = gaps
    blob, val_off = varint_encode_offsets(stream)
    # byte offset of each posting's stream start (+ final end)
    post_off = np.empty(n + 1, dtype=np.int64)
    post_off[:-1] = val_off[stream_start]
    post_off[-1] = val_off[-1]
    return blob, post_off


def varint_decode(blob: bytes | memoryview | np.ndarray,
                  count: int | None = None) -> np.ndarray:
    """Decode a LEB128 stream (bytes-like or a uint8 array) to uint64
    (vectorized)."""
    b = np.frombuffer(blob, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    term_idx = np.nonzero(b < 128)[0]
    starts = np.empty_like(term_idx)
    starts[0] = 0
    starts[1:] = term_idx[:-1] + 1
    lens = term_idx - starts + 1
    vals = np.zeros(term_idx.shape, dtype=np.uint64)
    maxb = int(lens.max())
    for k in range(maxb):
        mask = lens > k
        vals[mask] |= (b[starts[mask] + k].astype(np.uint64) & np.uint64(0x7F)) << np.uint64(7 * k)
    if count is not None and vals.size != count:
        raise ValueError(f"varint stream decoded {vals.size} values, expected {count}")
    return vals


def decode_posting_blocks(firsts, ns, doc_blobs,
                          tf_blobs) -> tuple[np.ndarray, np.ndarray]:
    """Decode many posting blocks in ONE varint pass per stream →
    flat uint64 (ids, tf) in block order; block i owns the slice
    ``[sum(ns[:i]), sum(ns[:i+1]))``.

    Per-block ``varint_decode`` costs ~30µs of fixed numpy overhead and
    a multi-term query over a large corpus touches thousands of blocks,
    so the blobs are concatenated and each stream decoded once
    (``decode_posting_streams``)."""
    return decode_posting_streams(firsts, ns, b"".join(doc_blobs),
                                  b"".join(tf_blobs))


def decode_posting_streams(firsts, ns, doc_stream,
                           tf_stream) -> tuple[np.ndarray, np.ndarray]:
    """``decode_posting_blocks`` over blobs already concatenated in
    block order (bytes or a uint8 array each).  DocID gaps restart at
    every block (its first id is stored absolute): one cumsum over the
    interleaved (first, gaps...) stream, minus each block's running
    prefix, rebuilds every block's ids — uint64 wrap-around makes the
    subtraction exact."""
    n_arr = np.asarray(ns, dtype=np.int64)
    total = int(n_arr.sum())
    gaps = varint_decode(doc_stream, count=total - n_arr.size)
    tf = varint_decode(tf_stream, count=total)
    firsts = np.asarray(firsts, dtype=np.uint64)
    starts = np.cumsum(n_arr, dtype=np.int64) - n_arr
    head = np.zeros(total, dtype=bool)
    head[starts] = True
    stream = np.empty(total, dtype=np.uint64)
    stream[starts] = firsts
    stream[~head] = gaps
    run = np.cumsum(stream, dtype=np.uint64)
    ids = run - np.repeat(run[starts] - firsts, n_arr)
    return ids, tf


def delta_encode(sorted_ids: np.ndarray) -> bytes:
    """Encode a sorted docID array as varint deltas (first value absolute)."""
    a = np.ascontiguousarray(sorted_ids, dtype=np.uint64)
    if a.size == 0:
        return b""
    d = np.empty_like(a)
    d[0] = a[0]
    np.subtract(a[1:], a[:-1], out=d[1:])
    return varint_encode(d)


def delta_decode(blob: bytes | memoryview, count: int | None = None) -> np.ndarray:
    d = varint_decode(blob, count)
    return np.cumsum(d, dtype=np.uint64)


def encode_positions(pos_lists: list[np.ndarray]) -> bytes:
    """Encode per-posting position lists: varint(count), then varint gaps.

    Positions are 1-based token positions (pre-stop-removal stream, bleve
    semantics); each list must be strictly increasing.
    """
    parts: list[np.ndarray] = []
    for p in pos_lists:
        a = np.ascontiguousarray(p, dtype=np.uint64)
        d = np.empty(a.size + 1, dtype=np.uint64)
        d[0] = a.size
        if a.size:
            d[1] = a[0]
            np.subtract(a[1:], a[:-1], out=d[2:])
        parts.append(d)
    if not parts:
        return b""
    return varint_encode(np.concatenate(parts))


def decode_positions_flat(blob: bytes | memoryview | np.ndarray,
                          n_postings: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode ``n_postings`` concatenated position lists (the
    ``encode_positions`` / ``encode_positions_run`` stream, possibly many
    blocks' blobs joined) → (flat uint64 positions, int64 per-posting
    counts), with no per-posting Python.

    One varint pass gives the value stream (count, first, gaps...) per
    posting.  The count slots form a chain — the slot after slot ``i``
    is ``i + 1 + value[i]`` — so they are found by pointer doubling, in
    log2(n_postings) gathers over the stream; the positions are then one
    cumsum over the gaps, restarted at every posting's first value."""
    vals = varint_decode(blob)
    m = vals.size
    if n_postings <= 0:
        if m:
            raise ValueError(f"{m} position values for 0 postings")
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    # next count slot of each would-be slot; m is the end, and stays
    nxt = np.minimum(np.arange(1, m + 1, dtype=np.int64)
                     + np.minimum(vals, np.uint64(m)).astype(np.int64), m)
    jump = np.append(nxt, m)
    slots = np.zeros(1, dtype=np.int64)
    while slots.size < n_postings:  # slots = chain[:L], jump = next^L
        slots = np.concatenate([slots, jump[slots]])
        jump = jump[jump]
    slots = slots[:n_postings]
    last = int(slots[-1])
    if last >= m or last + 1 + int(vals[last]) != m:
        raise ValueError(f"position stream of {m} values does not hold "
                         f"{n_postings} postings")
    counts = vals[slots].astype(np.int64)
    is_gap = np.ones(m, dtype=bool)
    is_gap[slots] = False
    gaps = vals[is_gap]
    run = np.cumsum(gaps, dtype=np.uint64)
    starts = np.cumsum(counts, dtype=np.int64) - counts
    # subtract each posting's running prefix before its first value;
    # uint64 wrap-around makes the subtraction exact
    before = np.zeros(counts.size, dtype=np.uint64)
    nz = counts > 0
    before[nz] = run[starts[nz]] - gaps[starts[nz]]
    return run - np.repeat(before, counts), counts


def decode_positions(blob: bytes | memoryview, n_postings: int) -> list[np.ndarray]:
    """Per-posting position lists of an ``encode_positions`` stream."""
    flat, counts = decode_positions_flat(blob, n_postings)
    if not counts.size:
        return []
    return np.split(flat, np.cumsum(counts)[:-1])


# The one BM25: a posting's score is bm25_idf(N, df) * bm25_wdl(tf, dl,
# ...).  Every scorer in the package calls these two functions, so the
# engine and each feature gate compute it with the same float operations.

def bm25_idf(n_docs, df):
    """Lucene-smoothed BM25 idf ``ln(1 + (N - df + 0.5) / (df + 0.5))``
    — scalar or elementwise over an array of dfs."""
    return np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def bm25_wdl(tf: np.ndarray, dl: np.ndarray, k1: float, b: float, avgdl: float) -> np.ndarray:
    """Idf-free BM25 partial score: tf / (tf + k1*(1 - b + b*dl/avgdl))."""
    tf = tf.astype(np.float64)
    return tf / (tf + k1 * (1.0 - b + b * (dl.astype(np.float64) / avgdl)))


def aggregate_scores(ids: np.ndarray,
                     scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-posting scores by doc id → (sorted unique ids, summed
    scores).

    ``np.unique(return_inverse=True)`` then ``np.bincount(weights=...)``:
    bincount adds each doc's contributions in input order, as a
    sequential ``np.add.at`` would, so the float rounding is fixed by
    the order the caller concatenates postings in — the rank-identity
    contract of every scorer rests on that.  A hash-based pandas
    ``factorize`` gives bitwise-equal sums but costs the ~31 MB pandas
    import in every serving process: on a 4-CPU host, over 4
    docID-sorted runs of partition-prefixed ids (median of 7), it took
    3.2 / 71 / 209 ms at 100k / 1M / 2M postings against 4.3 / 54 /
    124 ms here."""
    uniq, inv = np.unique(ids, return_inverse=True)
    return uniq, np.bincount(inv, weights=scores, minlength=uniq.size)
