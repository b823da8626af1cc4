"""Deduplication suite (training-data addenda; SURVEY §2.7 extends the
reference's declared-but-inert content dedup, bleve_pdf.go:395-409).

* exact dedup          — pipelines/build.py:dedup_exact (hash groupby)
* n-gram Jaccard       — exact pairwise similarity via a shingle
                         inverted index (SQL-oracled)
* MinHash + LSH        — shingle → minhash signature → banded groupby →
                         candidate pairs → signature-verified → clusters
* SimHash              — 64-bit fingerprints + banded hamming candidates

All stages are map_batches / groupby compositions; the only driver-side
work is union-find over the (small) verified-pair set, with the
documented scale path being iterative min-label propagation.
"""

from __future__ import annotations

from ..functions.spill import BUCKET_COL, bucket_exchange, spill_dir

import numpy as np
import pyarrow as pa

import ray.data as rd
from ray.data.aggregate import Count, Min

from ..analysis.analyzer import analyze_simple

# ------------------------------------------------------------------ shingles


def _word_ngrams(tokens: list[str], n: int) -> set[str]:
    # docs shorter than n tokens yield NO shingles (matches the SQL oracle,
    # whose self-join can't produce a partial shingle)
    if len(tokens) < n:
        return set()
    return {" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)}


class _ShingleEmitter:
    """doc → distinct (doc_id, shingle-hash) rows (simple analyzer).
    Shingle strings never leave the batch: the inverted index only
    needs shingle EQUALITY, so each distinct shingle ships as its
    md5-low64 (collision-equivalent to the string — the SQL oracle
    joins on shingle strings and never reproduces the keying), 16
    bytes per row instead of a ~20-byte string."""

    def __init__(self, n: int):
        self.n = n

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, flat, counts = [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(),
                             batch["text"].to_pylist()):
            sh = _word_ngrams(analyze_simple(text or ""), self.n)
            if not sh:
                continue
            ids.append(did)
            flat.extend(sh)
            counts.append(len(sh))
        if not ids:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "h": pa.array([], type=pa.int64()),
                "n_sh": pa.array([], type=pa.int64()),
            })
        h = _hash_shingles(flat).view(np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        # the doc's distinct-shingle count rides on every row
        # (denormalized), so the jaccard denominator needs NO join later
        return pa.table({
            "doc_id": pa.array(np.repeat(
                np.asarray(ids, dtype=np.int64), counts),
                type=pa.int64()),
            "h": pa.array(h, type=pa.int64()),
            "n_sh": pa.array(np.repeat(counts, counts), type=pa.int64()),
        })


def ngram_jaccard_pairs(
    docs: rd.Dataset,
    *,
    n: int = 3,
    threshold: float = 0.6,
    max_shingle_df: int = 1000,
) -> pa.Table:
    """Exact n-gram Jaccard similar pairs (doc_a < doc_b, jaccard ≥
    threshold), via a shingle inverted index:

        (doc, shingle-hash, n_sh) bucket spill → per-bucket vectorized
        pair emission (counts denormalized onto the pairs) → ONE
        narrow groupby(pair) → distributed threshold → jaccard

    Shingles with df > ``max_shingle_df`` are dropped (they contribute
    little discrimination and make a pair-explosion hot spot — the same
    skew argument as posting-list salting); at default settings this is a
    no-op on the test tables.  Returns (doc_a, doc_b, jaccard rounded 6).

    Two scale-shape decisions, both join-free:
    * The inverted index is a bucket spill by shingle hash, NOT a
      ``groupby(shingle).map_groups`` — a web corpus's shingle table
      is mostly singleton groups, and per-group Python dispatch over
      millions of singletons dwarfs the pair work.  Each bucket task
      lexsorts its rows once and emits within-group pairs with a
      vectorized offset sweep (k = 1..max group size, one mask over
      the whole bucket per step), pre-combined per (a, b) before
      leaving the task — O(rows + pairs), no per-group calls.
    * Each doc's distinct-shingle count rides ON the spill rows (8
      bytes), so every emitted pair carries its own jaccard
      denominator (na, nb) — the two hash_joins against a counts
      table (4 spill writes of O(candidate-pairs) rows) are gone
      entirely.  The global per-pair combine is a SECOND bucket spill
      (by doc_a hash) + per-bucket lexsort/run-length sum — measured
      ~100× faster than ``groupby([doc_a, doc_b])`` (Ray's multi-key
      sort aggregate took minutes on ~1M pair rows).  The threshold
      applies inside the combine tasks; only above-threshold pairs
      ever reach the driver.
    """
    from ..functions.tables import typed_pandas

    empty_out = pa.table({
        "doc_a": pa.array([], type=pa.int64()),
        "doc_b": pa.array([], type=pa.int64()),
        "jaccard": pa.array([], type=pa.float64()),
    })

    def pairs_bucket(_b: int, t: pa.Table) -> pa.Table | None:
        h = t["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ns = t["n_sh"].to_numpy(zero_copy_only=False).astype(np.int64)
        if h.size < 2:
            return None
        order = np.lexsort((d, h))
        h, d, ns = h[order], d[order], ns[order]
        new = np.ones(h.size, dtype=bool)
        new[1:] = h[1:] != h[:-1]
        gid = np.cumsum(new, dtype=np.int64) - 1
        sizes = np.bincount(gid)
        ok_g = (sizes >= 2) & (sizes <= max_shingle_df)
        if not ok_g.any():
            return None
        okrow = ok_g[gid]
        pa_, pb_, pna, pnb = [], [], [], []
        for k in range(1, int(sizes[ok_g].max())):
            m = (gid[:-k] == gid[k:]) & okrow[:-k]
            if m.any():
                pa_.append(d[:-k][m])
                pb_.append(d[k:][m])
                pna.append(ns[:-k][m])
                pnb.append(ns[k:][m])
        if not pa_:
            return None
        A = np.concatenate(pa_)
        B = np.concatenate(pb_)
        NA = np.concatenate(pna)
        NB = np.concatenate(pnb)
        # pre-combine per (a, b) inside the bucket: one lexsort +
        # run-length count — the per-task combiner before the global
        # groupby
        o2 = np.lexsort((B, A))
        A, B, NA, NB = A[o2], B[o2], NA[o2], NB[o2]
        first = np.ones(A.size, dtype=bool)
        first[1:] = (A[1:] != A[:-1]) | (B[1:] != B[:-1])
        starts = np.flatnonzero(first)
        cnt = np.diff(np.append(starts, A.size))
        return pa.table({
            "doc_a": pa.array(A[starts], type=pa.int64()),
            "doc_b": pa.array(B[starts], type=pa.int64()),
            "na": pa.array(NA[starts], type=pa.int64()),
            "nb": pa.array(NB[starts], type=pa.int64()),
            "c": pa.array(cnt, type=pa.int64()),
        })

    def combine_bucket(_b: int, t: pa.Table) -> pa.Table:
        A = t["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        B = t["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        NA = t["na"].to_numpy(zero_copy_only=False).astype(np.float64)
        NB = t["nb"].to_numpy(zero_copy_only=False).astype(np.float64)
        C = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((B, A))
        A, B, NA, NB, C = A[o], B[o], NA[o], NB[o], C[o]
        first = np.ones(A.size, dtype=bool)
        first[1:] = (A[1:] != A[:-1]) | (B[1:] != B[:-1])
        starts = np.flatnonzero(first)
        inter = np.add.reduceat(C, starts).astype(np.float64)
        na, nb = NA[starts], NB[starts]
        j = np.round(inter / (na + nb - inter), 6)
        keep = j >= threshold
        if not keep.any():
            return empty_out
        return pa.table({
            "doc_a": pa.array(A[starts][keep], type=pa.int64()),
            "doc_b": pa.array(B[starts][keep], type=pa.int64()),
            "jaccard": pa.array(j[keep], type=pa.float64()),
        })

    pairs = bucket_exchange(
        [docs.map_batches(_ShingleEmitter(n), batch_format="pyarrow")],
        ["h"], 16, pairs_bucket)
    out = typed_pandas(
        bucket_exchange([pairs], ["doc_a"], 16, combine_bucket),
        {"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"},
    ).sort_values(["doc_a", "doc_b"])
    return pa.table({
        "doc_a": pa.array(out["doc_a"].astype("int64").tolist(), type=pa.int64()),
        "doc_b": pa.array(out["doc_b"].astype("int64").tolist(), type=pa.int64()),
        "jaccard": pa.array(out["jaccard"].tolist(), type=pa.float64()),
    })


# ------------------------------------------------------------------ minhash


_MERSENNE = (1 << 61) - 1


def _perm_params(k: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=k, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=k, dtype=np.int64).astype(np.uint64)
    return a, b


def _hash_shingles(shingles: list[str]) -> np.ndarray:
    """64-bit shingle hash = md5-low64 (digest bytes 8..16 little-endian),
    exactly DuckDB's ``md5_number_lower`` — keeps the whole minhash
    pipeline SQL-oracle-checkable."""
    import hashlib

    return np.array(
        [int.from_bytes(hashlib.md5(s.encode()).digest()[8:16], "little")
         for s in shingles],
        dtype=np.uint64,
    )


def _band_hash(band: np.ndarray) -> int:
    """Band bucket key: md5-low64 of the canonical decimal-comma string
    of the band's minhash values, >>1 to fit int64.  String-based (not
    raw bytes) so the SQL oracle can recompute it with string_agg."""
    import hashlib

    s = ",".join(str(int(v)) for v in band)
    return int.from_bytes(hashlib.md5(s.encode()).digest()[8:16], "little") >> 1


def _affine_mod61(x: np.ndarray, a: np.uint64, b: np.uint64) -> np.ndarray:
    """Exact ``(x·a + b) mod 2^61-1`` for a uint64 array — pure uint64
    limb arithmetic (32-bit partial products, then the Mersenne fold
    2^64 ≡ 8 mod M), no Python-object bigints.  Bit-identical to the
    object-int reference (equivalence-tested in test_dedup)."""
    M = np.uint64(_MERSENNE)
    c61, c32, c3 = np.uint64(61), np.uint64(32), np.uint64(3)
    mask32 = np.uint64(0xFFFFFFFF)
    # reduce x below M first ((x·a) mod M is unchanged)
    x = (x & M) + (x >> c61)
    x = np.where(x >= M, x - M, x)
    xh, xl = x >> c32, x & mask32
    ah, al = a >> c32, a & mask32
    t = xl * al
    u = xh * al + (t >> c32)
    v = xl * ah + (u & mask32)
    hi = xh * ah + (u >> c32) + (v >> c32)      # < 2^58: x,a < 2^61
    lo = (v << c32) | (t & mask32)
    r = (hi << c3) + (lo & M) + (lo >> c61) + b  # < 2^63
    r = (r & M) + (r >> c61)
    return np.where(r >= M, r - M, r)


def _minhash_sig(sh_hashes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K-permutation minhash via affine hashing mod 2^61-1 (vectorized)."""
    if sh_hashes.size == 0:
        return np.full(a.shape, np.uint64(_MERSENNE))
    return np.stack([
        _affine_mod61(sh_hashes, a[k], b[k]).min()
        for k in range(a.size)
    ]).astype(np.uint64)


class MinHashSigner:
    """Actor: doc → ONE (doc_id, sig) row; sig = num_perm uint64
    minhashes as little-endian bytes.  Permutation parameters built once
    per actor (seeded, identical everywhere).  Docs with no shingles
    yield no row (never near-dup candidates)."""

    def __init__(self, num_perm: int = 128, shingle_n: int = 3, seed: int = 42):
        self.shingle_n = shingle_n
        self.a, self.b = _perm_params(num_perm, seed)

    def signature(self, text: str) -> np.ndarray | None:
        toks = analyze_simple(text or "")
        sh = _hash_shingles(sorted(_word_ngrams(toks, self.shingle_n)))
        if sh.size == 0:
            return None
        return _minhash_sig(sh, self.a, self.b)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # flat batch kernel: shingle strings per doc (the only per-doc
        # Python), ONE md5 pass over all shingles (the SQL oracle
        # reproduces exactly this hash), then per permutation one
        # vectorized affine over the flat hash array + a per-doc
        # minimum.reduceat — no per-(doc, perm) small-vector calls
        ids, flat, counts = [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(),
                             batch["text"].to_pylist()):
            toks = analyze_simple(text or "")
            sh = _word_ngrams(toks, self.shingle_n)
            if not sh:
                continue  # never a near-dup candidate
            ids.append(did)
            flat.extend(sh)
            counts.append(len(sh))
        if not ids:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "sig": pa.array([], type=pa.large_binary()),
            })
        h = _hash_shingles(flat)
        del flat
        counts = np.asarray(counts, dtype=np.int64)
        starts = np.cumsum(counts) - counts
        sig_mat = np.empty((len(ids), self.a.size), dtype=np.uint64)
        for k in range(self.a.size):
            sig_mat[:, k] = np.minimum.reduceat(
                _affine_mod61(h, self.a[k], self.b[k]), starts)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "sig": pa.array([sig_mat[i].tobytes()
                             for i in range(len(ids))],
                            type=pa.large_binary()),
        })


# per-worker-process signer memo (keyed by params): lets the signature
# stage run as a plain TASK pool — the "state" is cheap to build, so
# paying actor-pool spawn for it is pure overhead
_signer_memo: dict[tuple, "MinHashSigner"] = {}


def _sign_batch(batch: pa.Table, *, num_perm: int, shingle_n: int,
                seed: int = 42) -> pa.Table:
    key = (num_perm, shingle_n, seed)
    s = _signer_memo.get(key)
    if s is None:
        s = _signer_memo.setdefault(
            key, MinHashSigner(num_perm, shingle_n, seed))
    return s(batch)


def _band_row_table(batch: pa.Table, *, bands: int, r: int) -> pa.Table:
    """(doc_id, sig) → (band_id, band_hash, doc_id) rows — the ONLY
    columns the LSH shuffle moves (the full signature stays in the sig
    table; shipping it on every band row would inflate the shuffle
    ``bands``×)."""
    ids, band_ids, hashes = [], [], []
    for did, sig_bytes in zip(batch["doc_id"].to_pylist(),
                              batch["sig"].to_pylist()):
        sig = np.frombuffer(sig_bytes, dtype=np.uint64)
        for bi in range(bands):
            ids.append(did)
            band_ids.append(bi)
            hashes.append(_band_hash(sig[bi * r : (bi + 1) * r]))
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "band_id": pa.array(band_ids, type=pa.int32()),
        "band_hash": pa.array(hashes, type=pa.int64()),
    })


def minhash_lsh_dedup(
    docs: rd.Dataset,
    *,
    num_perm: int = 128,
    bands: int = 16,
    shingle_n: int = 3,
    threshold: float = 0.7,
    max_bucket: int = 2000,
) -> pa.Table:
    """MinHash+LSH near-dup clusters, fully distributed (SQL-oracled).

    1. signature pass → (doc_id, sig) parquet spill (consumed 2×)
    2. band rows (doc_id, band_id, band_hash) — 20 bytes/row, NOT the
       1 KB signature — bucket-spilled by band_hash; each bucket task
       lexsorts once and emits candidate pairs per (band_id, band_hash)
       group with the vectorized offset sweep (star-shaped for
       oversize buckets: members of a huge bucket are near-identical,
       so (min, other) edges suffice for clustering).  No
       ``groupby(band).map_groups`` — per-group Python dispatch over a
       mostly-singleton band table is the measured pathology the
       ngram_jaccard docstring records.
    3. distinct pairs ⋈ sig table twice (hash_join: bucket-partitioned
       spill join) → verify est. Jaccard = signature agreement ≥
       threshold inside the join tasks
    4. min-label propagation (functions/joins.py) → (doc_id, keep_id);
       no driver-side union-find, no O(corpus) driver gather.
    """
    import os

    from ray.data.aggregate import Count

    from ..functions.joins import hash_join, min_label_propagation

    from functools import partial

    assert num_perm % bands == 0
    r = num_perm // bands

    def band_pairs(_b: int, t: pa.Table) -> pa.Table | None:
        if t.num_rows < 2:
            return None
        bid = t["band_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = t["band_hash"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((d, h, bid))
        bid, h, d = bid[order], h[order], d[order]
        new = np.ones(d.size, dtype=bool)
        new[1:] = (bid[1:] != bid[:-1]) | (h[1:] != h[:-1])
        gid = np.cumsum(new, dtype=np.int64) - 1
        sizes = np.bincount(gid)
        a_parts, b_parts = [], []
        # normal groups: all pairs via the offset sweep
        ok_g = (sizes >= 2) & (sizes <= max_bucket)
        if ok_g.any():
            okrow = ok_g[gid]
            for k in range(1, int(sizes[ok_g].max())):
                m = (gid[:-k] == gid[k:]) & okrow[:-k]
                if m.any():
                    a_parts.append(d[:-k][m])
                    b_parts.append(d[k:][m])
        # oversize groups: star edges (min member, other) only
        big_g = sizes > max_bucket
        if big_g.any():
            starts = np.flatnonzero(new)
            bs = starts[big_g[gid[starts]]]
            bsz = sizes[gid[bs]]
            a_parts.append(np.repeat(d[bs], bsz - 1))
            rows = big_g[gid] & ~new
            b_parts.append(d[rows])
        if not a_parts:
            return None
        return pa.table({
            "doc_a": pa.array(np.concatenate(a_parts), type=pa.int64()),
            "doc_b": pa.array(np.concatenate(b_parts), type=pa.int64()),
        })

    def _sig_matrix(col) -> np.ndarray:
        """Fixed-width signature column → (n, n_hashes) uint64 matrix in
        ONE reshape of the arrow data buffer (zero row-level Python) —
        the signatures are all ``n_hashes * 8`` bytes by construction,
        asserted via the offsets delta."""
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        n = len(arr)
        off_dtype = np.int64 if pa.types.is_large_binary(arr.type) \
            else np.int32
        bufs = arr.buffers()
        offsets = np.frombuffer(bufs[1], dtype=off_dtype)[
            arr.offset: arr.offset + n + 1]
        width = int(offsets[1] - offsets[0])
        assert width % 8 == 0 and (np.diff(offsets) == width).all()
        data = np.frombuffer(bufs[2], dtype=np.uint8)
        return (data[int(offsets[0]):int(offsets[-1])]
                .view(np.uint64).reshape(n, width // 8))

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "est_jaccard": pa.array([], type=pa.float64()),
            })
        va = _sig_matrix(batch["sig_a"])
        vb = _sig_matrix(batch["sig_b"])
        j = (va == vb).mean(axis=1)
        keep = j >= threshold
        return pa.table({
            "doc_a": batch["doc_a"].to_numpy(zero_copy_only=False)
            .astype(np.int64)[keep],
            "doc_b": batch["doc_b"].to_numpy(zero_copy_only=False)
            .astype(np.int64)[keep],
            "est_jaccard": pa.array(j[keep], type=pa.float64()),
        })

    with spill_dir("pdfsearch_minhash_") as work:
        # 1. signatures spill once: the band pass and both joins read them
        sig_dir = f"{work}/sigs"
        # task pool, not an actor pool: signer "state" is 2×num_perm
        # seeded ints (microseconds to build, memoized per worker
        # process) — actor spawn latency would dominate at gate scale
        docs.map_batches(
            partial(_sign_batch, num_perm=num_perm, shingle_n=shingle_n),
            batch_format="pyarrow",
        ).write_parquet(sig_dir)
        if not os.path.isdir(sig_dir):   # zero-row corpus: nothing signed
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "keep_id": pa.array([], type=pa.int64()),
            })
        sigs = rd.read_parquet(sig_dir)
        pairs = (
            bucket_exchange(
                [sigs.map_batches(partial(_band_row_table, bands=bands, r=r),
                                  batch_format="pyarrow")],
                ["band_hash"], 16, band_pairs)
            .groupby(["doc_a", "doc_b"])
            .aggregate(Count(alias_name="n_bands"))
        )
        with_a = hash_join(
            pairs, sigs.map_batches(
                lambda t: pa.table({"doc_id": t["doc_id"],
                                    "sig_a": t["sig"]}),
                batch_format="pyarrow"),
            left_on="doc_a", right_on="doc_id",
        )
        with_both = hash_join(
            with_a, sigs.map_batches(
                lambda t: pa.table({"doc_id": t["doc_id"],
                                    "sig_b": t["sig"]}),
                batch_format="pyarrow"),
            left_on="doc_b", right_on="doc_id",
        )
    return min_label_propagation(
        with_both.map_batches(verify, batch_format="pyarrow").materialize())


# ------------------------------------------------------------------ simhash


def _simhash(text: str) -> int:
    """Doc → 64-bit simhash over simple-analyzer tokens.

    The per-token 64-bit hash is the LOW half of md5 (digest bytes 8..16,
    little-endian) — exactly DuckDB's ``md5_number_lower``, so the whole
    fingerprint is SQL-oracle-checkable (see __ray_entry__.oracle_sql)."""
    import hashlib

    toks = analyze_simple(text or "")
    if not toks:
        return 0
    hs = np.array(
        [int.from_bytes(hashlib.md5(t.encode()).digest()[8:16], "little")
         for t in toks],
        dtype=np.uint64,
    )
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1)
    votes = bits.astype(np.int64).sum(axis=0) * 2 - len(hs)
    fp = 0
    for i in range(64):
        if votes[i] > 0:
            fp |= 1 << i
    return fp


def _simhash_batch(batch: pa.Table) -> pa.Table:
    ids, fps = [], []
    for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        ids.append(did)
        fps.append(_simhash(text) - (1 << 63))  # shift into int64
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "simhash": pa.array(fps, type=pa.int64()),
    })


def simhash_fingerprints(docs: rd.Dataset) -> rd.Dataset:
    return docs.map_batches(_simhash_batch, batch_format="pyarrow")


def simhash_dup_pairs(docs: rd.Dataset, max_hamming: int = 3) -> pa.Table:
    """Near-dup pairs with hamming(simhash) ≤ k via pigeonhole banding:
    split 64 bits into k+1 bands; a pair within distance k must agree on
    ≥1 band → groupby(band value) → verify exact hamming."""
    fps = simhash_fingerprints(docs)
    nbands = max_hamming + 1
    width = 64 // nbands

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        sh_i64 = batch["simhash"].to_numpy()
        h = sh_i64.astype(np.int64).view(np.uint64) + np.uint64(1 << 63)
        out_id, out_b, out_v, out_h = [], [], [], []
        for bi in range(nbands):
            shift = np.uint64(bi * width)
            mask = np.uint64((1 << width) - 1)
            vals = (h >> shift) & mask
            out_id += [int(x) for x in ids]
            out_b += [bi] * len(ids)
            out_v += [int(x) for x in vals]
            out_h += [int(x) for x in sh_i64]
        return pa.table({
            "doc_id": pa.array(out_id, type=pa.int64()),
            "band_id": pa.array(out_b, type=pa.int32()),
            "band_val": pa.array(out_v, type=pa.int64()),
            "simhash": pa.array(out_h, type=pa.int64()),
        })

    def candidates(g: pa.Table) -> pa.Table:
        order = np.argsort(g["doc_id"].to_numpy())
        ids = g["doc_id"].to_numpy()[order]
        hs = g["simhash"].to_numpy()[order].astype(np.int64).view(np.uint64)
        uniq = np.ones(ids.size, dtype=bool)
        uniq[1:] = ids[1:] != ids[:-1]
        ids, hs = ids[uniq], hs[uniq]
        empty = pa.table({
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
            "hamming": pa.array([], type=pa.int64()),
        })
        if len(ids) < 2:
            return empty
        a, b = np.triu_indices(len(ids), k=1)
        x = hs[a] ^ hs[b]
        ham = np.array([bin(int(v)).count("1") for v in x])
        keep = ham <= max_hamming
        return pa.table({
            "doc_a": pa.array(ids[a][keep], type=pa.int64()),
            "doc_b": pa.array(ids[b][keep], type=pa.int64()),
            "hamming": pa.array(ham[keep].astype(np.int64), type=pa.int64()),
        })

    pair_rows = (
        fps.map_batches(band_rows, batch_format="pyarrow")
        .groupby(["band_id", "band_val"])
        .map_groups(candidates, batch_format="pyarrow")
    )
    pairs = (
        pair_rows.groupby(["doc_a", "doc_b"])
        .aggregate(Min("hamming", alias_name="hamming"))
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
    )
    return pa.table({
        "doc_a": pa.array(pairs["doc_a"].astype("int64").tolist(), type=pa.int64()),
        "doc_b": pa.array(pairs["doc_b"].astype("int64").tolist(), type=pa.int64()),
        "hamming": pa.array(pairs["hamming"].astype("int64").tolist(), type=pa.int64()),
    })


# ------------------------------------------------------- chunk-level dedup


CHUNK_WORDS = 8  # non-overlapping words per dedup segment


def _doc_chunks(text: str, w: int) -> list[str]:
    """Non-overlapping ``w``-word segments; the final segment may be
    shorter.  ``''.split(' ')`` is ``['']`` (one 1-word chunk), matching
    DuckDB ``string_split``."""
    words = text.split(" ")
    return [" ".join(words[i:i + w]) for i in range(0, len(words), w)]


def _md5_pair(s: str) -> tuple[int, int]:
    """Full 128-bit md5 as two signed int64 groupby keys — the SAME
    equivalence classes as the oracle's ``PARTITION BY md5(chunk)``."""
    import hashlib

    h = np.frombuffer(hashlib.md5(s.encode("utf-8")).digest(), dtype="<i8")
    return int(h[0]), int(h[1])


def chunk_dedup(
    docs: rd.Dataset,
    *,
    words_per_chunk: int = CHUNK_WORDS,
) -> rd.MaterializedDataset:
    """Corpus-level sequence dedup (C4 / "Deduplicating Training Data
    Makes Language Models Better"-style): split every doc into
    non-overlapping ``words_per_chunk``-word segments, keep exactly ONE
    copy of each distinct full-length segment across the whole corpus
    (winner = lexicographically least (doc_id, chunk_idx)), drop the
    rest, and reassemble each doc from its surviving segments.
    Short final segments never participate in dedup.

    Scale shape (text is never shuffled):
    1. election — narrow (md5_hi, md5_lo, doc_id, chunk_idx) rows,
       groupby full 128-bit hash, emit LOSER rows only;
    2. the loser table (one narrow row per dropped segment) is
       range-partitioned by doc_id (sort + parquet row-group stats);
    3. reassembly re-reads the original docs and re-derives segments
       locally; each batch loads only the loser row groups overlapping
       its own doc_id range (docs arrive doc_id-clustered from the
       source, so the pruned read is O(batch's own losers)).

    The loser table lives in a scoped spill, so the result comes back
    materialized.
    """

    w = words_per_chunk

    def election(batch: pa.Table) -> pa.Table:
        hi, lo, ids, idxs = [], [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(),
                             batch["text"].to_pylist()):
            for ci, chunk in enumerate(_doc_chunks(text or "", w)):
                if chunk.count(" ") != w - 1:  # short final segment
                    continue
                a, b = _md5_pair(chunk)
                hi.append(a)
                lo.append(b)
                ids.append(did)
                idxs.append(ci)
        return pa.table({
            "h_hi": pa.array(hi, type=pa.int64()),
            "h_lo": pa.array(lo, type=pa.int64()),
            "doc_id": pa.array(ids, type=pa.int64()),
            "chunk_idx": pa.array(idxs, type=pa.int64()),
        })

    # Election via hash-bucket parquet spill + ONE vectorized lexsort
    # per bucket — not Ray's sort-based groupby + a Python map_groups
    # call per distinct hash (measured: the per-group Python dispatch
    # dominated; a bucket's whole election is one numpy pass).  The
    # shuffle still moves only narrow (h_hi, h_lo, doc_id, chunk_idx)
    # rows, one partition file set per hash bucket.
    n_buckets = 16

    def add_bucket(t: pa.Table) -> pa.Table:
        b = (t["h_hi"].to_numpy().view(np.uint64)
             % np.uint64(n_buckets)).astype(np.int32)
        return t.append_column(BUCKET_COL, pa.array(b))

    def bucket_losers(_b: int, t: pa.Table) -> pa.Table | None:
        hi = t["h_hi"].to_numpy()
        lo = t["h_lo"].to_numpy()
        ids = t["doc_id"].to_numpy()
        idxs = t["chunk_idx"].to_numpy()
        # winner = min (doc_id, chunk_idx) within each 128-bit hash
        order = np.lexsort((idxs, ids, lo, hi))
        hi_s, lo_s = hi[order], lo[order]
        first = np.empty(order.size, dtype=bool)
        first[0] = True
        first[1:] = (hi_s[1:] != hi_s[:-1]) | (lo_s[1:] != lo_s[:-1])
        drop = order[~first]
        if not drop.size:
            return None
        return pa.table({
            "doc_id": pa.array(ids[drop], type=pa.int64()),
            "chunk_idx": pa.array(idxs[drop], type=pa.int64()),
        })

    with spill_dir("chunk_dedup_") as loser_dir:
        losers = bucket_exchange(
            [docs.select_columns(["doc_id", "text"])
             .map_batches(election, batch_format="pyarrow")
             .map_batches(add_bucket, batch_format="pyarrow")
             # coalesce the NARROW election rows before the partitioned
             # write: every (block × bucket) pair becomes a file, so 64
             # upstream blocks × 32 buckets was 2048 tiny files and the
             # writer dominated the stage
             .repartition(8)],
            [None], n_buckets, bucket_losers)
        if losers.count():   # losers only — far smaller than the corpus
            losers.sort("doc_id").write_parquet(loser_dir,
                                                row_group_size=16384)
        return _reassembled(docs, loser_dir, w)


def _reassembled(docs: rd.Dataset, loser_dir: str,
                 w: int) -> rd.MaterializedDataset:
    """Each doc rebuilt from its surviving segments; every batch reads
    only the loser files overlapping its own doc_id range."""
    import os

    import pyarrow.parquet as pq

    # per-file doc_id ranges from footer stats (files are doc_id-sorted,
    # so ranges are near-disjoint): each reassembly batch opens only the
    # loser files overlapping its own id range, not every file
    loser_ranges: list[tuple[str, int, int]] = []
    for f in sorted(os.listdir(loser_dir)):
        if not f.endswith(".parquet"):
            continue
        p = os.path.join(loser_dir, f)
        md = pq.ParquetFile(p).metadata
        col = md.schema.to_arrow_schema().get_field_index("doc_id")
        mins, maxs = [], []
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(col).statistics
            if st is None or st.min is None:
                mins, maxs = [-(1 << 62)], [1 << 62]
                break
            mins.append(st.min)
            maxs.append(st.max)
        if mins:
            loser_ranges.append((p, min(mins), max(maxs)))

    def reassemble(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        dropped: dict[int, set[int]] = {}
        if len(ids) and loser_ranges:
            lo_id, hi_id = int(ids.min()), int(ids.max())
            flt = [("doc_id", ">=", lo_id), ("doc_id", "<=", hi_id)]
            for p, f_lo, f_hi in loser_ranges:
                if f_hi < lo_id or f_lo > hi_id:
                    continue
                t = pq.read_table(p, filters=flt)
                for d, c in zip(t["doc_id"].to_pylist(),
                                t["chunk_idx"].to_pylist()):
                    dropped.setdefault(d, set()).add(c)
        out_text, out_kept, out_drop = [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(),
                             batch["text"].to_pylist()):
            chunks = _doc_chunks(text or "", w)
            gone = dropped.get(did, ())
            kept = [c for i, c in enumerate(chunks) if i not in gone]
            out_text.append(" ".join(kept))
            out_kept.append(len(kept))
            out_drop.append(len(chunks) - len(kept))
        return pa.table({
            "doc_id": batch["doc_id"],
            "text_dedup": pa.array(out_text, type=pa.string()),
            "n_kept": pa.array(out_kept, type=pa.int64()),
            "n_dropped": pa.array(out_drop, type=pa.int64()),
        })

    return (
        docs.select_columns(["doc_id", "text"])
        .map_batches(reassemble, batch_format="pyarrow")
        .materialize()
    )


# ------------------------------------------- cross-source overlap provenance


def source_overlap(
    docs: rd.Dataset,
    *,
    words_per_chunk: int = CHUNK_WORDS,
    num_buckets: int = 16,
) -> pa.Table:
    """Cross-source duplicate provenance: for every unordered pair of
    sources, how many DISTINCT full-length ``words_per_chunk``-word
    segments appear in both — the curation diagnostic "how much content
    do crawls/dumps share" (the doc-level exact-dup rate between e.g.
    two CommonCrawl snapshots understates overlap badly; segment-level
    is the standard measure).  Output per pair: shared distinct chunk
    count, each side's distinct chunk count, and integer-basis-point
    Jaccard ``floor(1e4·|A∩B| / |A∪B|)``.

    Scale shape (text never shuffles; same election spill as
    chunk_dedup):
    1. per-batch: docs → full-length segments → 128-bit md5 as two
       int64s → per-batch DISTINCT (h_hi, h_lo, source) rows;
    2. narrow rows spill hash-bucket-partitioned (a chunk's every
       occurrence lands in one bucket, so cross-bucket double counting
       is impossible);
    3. one vectorized pass per bucket: global distinct triples, then
       per-source distinct-chunk partials and per-pair shared counts
       (the only Python loop is over hashes shared by ≥2 sources —
       O(shared chunks), the result size, not the corpus);
    4. driver sums O(buckets × sources²) partial rows — with S sources
       that is ≤ buckets·S²  rows regardless of corpus size.
    """
    w = words_per_chunk

    def emit(batch: pa.Table) -> pa.Table:
        hi, lo, srcs = [], [], []
        seen: set[tuple[int, int, str]] = set()
        for src, text in zip(batch["source"].to_pylist(),
                             batch["text"].to_pylist()):
            for chunk in _doc_chunks(text or "", w):
                if chunk.count(" ") != w - 1:  # short final segment
                    continue
                a, b = _md5_pair(chunk)
                key = (a, b, src)
                if key in seen:
                    continue
                seen.add(key)
                hi.append(a)
                lo.append(b)
                srcs.append(src)
        t = pa.table({
            "h_hi": pa.array(hi, type=pa.int64()),
            "h_lo": pa.array(lo, type=pa.int64()),
            "source": pa.array(srcs, type=pa.string()),
        })
        b = (t["h_hi"].to_numpy().view(np.uint64)
             % np.uint64(num_buckets)).astype(np.int32)
        return t.append_column(BUCKET_COL, pa.array(b))

    def bucket_partials(_b: int, t: pa.Table) -> pa.Table:
        """Per-bucket partials in ONE schema: per-source distinct
        counts as (source_a, source_b='', n); shared-pair counts as
        (source_a, source_b, n) with source_a < source_b."""
        out_a: list[str] = []
        out_b: list[str] = []
        out_n: list[int] = []
        srcs, codes = np.unique(
            np.asarray(t["source"].to_pylist(), dtype=object),
            return_inverse=True)
        hi = t["h_hi"].to_numpy()
        lo = t["h_lo"].to_numpy()
        # global distinct triples, hash-major / code-minor so each hash
        # group lists its sources in string order
        order = np.lexsort((codes, lo, hi))
        hi, lo, codes = hi[order], lo[order], codes[order]
        first = np.empty(hi.size, dtype=bool)
        first[0] = True
        first[1:] = ((hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
                     | (codes[1:] != codes[:-1]))
        hi, lo, codes = hi[first], lo[first], codes[first]
        # per-source distinct chunk counts
        cnt = np.bincount(codes, minlength=srcs.size)
        for si in range(srcs.size):
            if cnt[si]:
                out_a.append(str(srcs[si]))
                out_b.append("")
                out_n.append(int(cnt[si]))
        # hash groups with >=2 sources → all (a<b) pairs
        gstart = np.empty(hi.size, dtype=bool)
        gstart[0] = True
        gstart[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        starts = np.nonzero(gstart)[0]
        lens = np.diff(np.append(starts, hi.size))
        pair_n: dict[tuple[int, int], int] = {}
        for s, L in zip(starts[lens >= 2], lens[lens >= 2]):
            grp = codes[s:s + L]
            for i in range(L - 1):
                for j in range(i + 1, L):
                    k = (int(grp[i]), int(grp[j]))
                    pair_n[k] = pair_n.get(k, 0) + 1
        for (ia, ib), n in pair_n.items():
            out_a.append(str(srcs[ia]))
            out_b.append(str(srcs[ib]))
            out_n.append(n)
        return pa.table({
            "source_a": pa.array(out_a, type=pa.string()),
            "source_b": pa.array(out_b, type=pa.string()),
            "n": pa.array(out_n, type=pa.int64()),
        })

    empty = pa.table({
        "source_a": pa.array([], type=pa.string()),
        "source_b": pa.array([], type=pa.string()),
        "n_shared": pa.array([], type=pa.int64()),
        "n_chunks_a": pa.array([], type=pa.int64()),
        "n_chunks_b": pa.array([], type=pa.int64()),
        "jaccard_bp": pa.array([], type=pa.int64()),
    })
    partials = bucket_exchange(
        # coalesce narrow rows so (blocks × buckets) stays a sane file
        # count (same rationale as chunk_dedup's election)
        [docs.select_columns(["source", "text"])
         .map_batches(emit, batch_format="pyarrow").repartition(8)],
        [None], num_buckets, bucket_partials,
    ).to_pandas()  # O(buckets × sources²) rows — driver-safe
    if partials.empty:
        return empty
    tot = (partials.groupby(["source_a", "source_b"], as_index=False)["n"]
           .sum())
    per_src = dict(zip(tot[tot["source_b"] == ""]["source_a"],
                       tot[tot["source_b"] == ""]["n"]))
    pairs = tot[tot["source_b"] != ""].sort_values(["source_a", "source_b"])
    if pairs.empty:
        return empty
    na = pairs["source_a"].map(per_src).astype("int64")
    nb = pairs["source_b"].map(per_src).astype("int64")
    sh = pairs["n"].astype("int64")
    return pa.table({
        "source_a": pa.array(pairs["source_a"].tolist(), type=pa.string()),
        "source_b": pa.array(pairs["source_b"].tolist(), type=pa.string()),
        "n_shared": pa.array(sh.tolist(), type=pa.int64()),
        "n_chunks_a": pa.array(na.tolist(), type=pa.int64()),
        "n_chunks_b": pa.array(nb.tolist(), type=pa.int64()),
        "jaccard_bp": pa.array(((10000 * sh) // (na + nb - sh)).tolist(),
                               type=pa.int64()),
    })


# --------------------------------------------- benchmark decontamination

# GPT-3-style eval decontamination (Brown et al. 2020 appendix C): flag
# training docs sharing any N_GRAM-word span with the held-out benchmark
# split.  The benchmark here is a deterministic mix64 sample of the
# corpus (the sandbox has no external eval set); in production it is an
# eval suite — SMALL BY DEFINITION and independent of corpus size, so
# broadcasting its distinct gram set is the correct 100 TB shape (the
# corpus streams, the benchmark is O(eval set) driver/worker state).
DECON_NGRAM = 13
# 8% of the synthetic corpus: large enough that the mix64 split catches
# some of the planted long-span duplicates at every test scale (a 2%
# split had zero partners at sf0.01, making the gate vacuous); a real
# deployment passes its actual eval set instead.
DECON_BENCH_RATE = 0.08

_GRAM_P1 = np.uint64(0x9E3779B97F4A7C15)   # odd multipliers for the two
_GRAM_P2 = np.uint64(0xC2B2AE3D27D4EB4F)   # independent 64-bit poly hashes


def _word_hashes(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent uint64 hashes per word (md5 halves) — computed
    once per DISTINCT word (the batch vocabulary), not per token."""
    import hashlib

    h1 = np.empty(words.size, dtype=np.uint64)
    h2 = np.empty(words.size, dtype=np.uint64)
    for i, w in enumerate(words):
        d = np.frombuffer(hashlib.md5(str(w).encode("utf-8")).digest(),
                          dtype="<u8")
        h1[i] = d[0]
        h2[i] = d[1]
    return h1, h2


def _gram_keys(batch: pa.Table, n: int) -> pa.Table:
    """Per-doc DISTINCT n-gram keys, vectorized: split → batch-local
    dictionary codes → md5 word-hashes (per distinct word) → two
    rolling degree-(n-1) polynomial hashes over the word-hash sequence
    (one uint64-wraparound multiply-add pass per window offset, no
    Python over tokens).  Key = (g1, g2): effectively 128 bits, so
    equality matches the oracle's exact string equality."""
    import pyarrow.compute as pc

    ids = batch["doc_id"].to_numpy()
    split = pc.split_pattern(batch["text"].fill_null(""), pattern=" ")
    flat = split.combine_chunks() if isinstance(split, pa.ChunkedArray) \
        else split
    offs = flat.offsets.to_numpy()          # doc i tokens: [offs[i], offs[i+1])
    enc = flat.values.dictionary_encode()
    codes = enc.indices.to_numpy().astype(np.int64)
    vocab = np.asarray(enc.dictionary.to_pylist(), dtype=object)
    w1, w2 = _word_hashes(vocab)
    t1, t2 = w1[codes], w2[codes]           # per-token hash sequences
    total = codes.size
    empty = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "g1": pa.array([], type=pa.int64()),
        "g2": pa.array([], type=pa.int64()),
    })
    if total < n:
        return empty
    m = total - n + 1                       # candidate window starts
    g1 = np.zeros(m, dtype=np.uint64)
    g2 = np.zeros(m, dtype=np.uint64)
    for k in range(n):                      # n shifted multiply-adds
        g1 = g1 * _GRAM_P1 + t1[k:k + m]
        g2 = g2 * _GRAM_P2 + t2[k:k + m]
    # a window is valid iff it stays inside one doc
    doc_of = np.repeat(np.arange(ids.size), np.diff(offs))[:m]
    valid = offs[doc_of + 1] - np.arange(m) >= n
    doc_of, g1, g2 = doc_of[valid], g1[valid], g2[valid]
    # per-doc distinct grams (docs are contiguous, one lexsort pass)
    order = np.lexsort((g2, g1, doc_of))
    d_s, a_s, b_s = doc_of[order], g1[order], g2[order]
    first = np.empty(d_s.size, dtype=bool)
    if d_s.size == 0:
        return empty
    first[0] = True
    first[1:] = ((d_s[1:] != d_s[:-1]) | (a_s[1:] != a_s[:-1])
                 | (b_s[1:] != b_s[:-1]))
    return pa.table({
        "doc_id": pa.array(ids[d_s[first]], type=pa.int64()),
        "g1": pa.array(a_s[first].view(np.int64), type=pa.int64()),
        "g2": pa.array(b_s[first].view(np.int64), type=pa.int64()),
    })


def decontaminate(
    docs: rd.Dataset,
    *,
    n: int = DECON_NGRAM,
    bench_rate: float = DECON_BENCH_RATE,
) -> rd.Dataset:
    """Flag training docs that share ≥1 distinct ``n``-word span with
    the benchmark split: (doc_id, n_hit_grams) for contaminated
    NON-benchmark docs.  Two streaming passes over the corpus; the only
    collected state is the benchmark's distinct gram keys (O(eval
    set)), shipped once via ``ray.put`` and joined per batch with
    Arrow's multi-key hash join — no shuffle anywhere."""
    import ray
    import pyarrow.compute as pc

    from .build import _sample_mask

    def bench_grams(batch: pa.Table) -> pa.Table:
        mask = _sample_mask(batch["doc_id"].to_numpy(), bench_rate)
        return _gram_keys(batch.filter(pa.array(mask)), n) \
            .select(["g1", "g2"])

    parts = docs.map_batches(bench_grams, batch_format="pyarrow") \
        .take_all()
    if parts:
        bench = pa.Table.from_pylist(parts).group_by(["g1", "g2"]) \
            .aggregate([])
    else:
        bench = pa.table({"g1": pa.array([], type=pa.int64()),
                          "g2": pa.array([], type=pa.int64())})
    bench_ref = ray.put(bench)

    def score(batch: pa.Table) -> pa.Table:
        b = ray.get(bench_ref)
        mask = _sample_mask(batch["doc_id"].to_numpy(), bench_rate)
        grams = _gram_keys(batch.filter(pa.array(~mask)), n)
        if grams.num_rows == 0 or b.num_rows == 0:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "n_hit_grams": pa.array([], type=pa.int64()),
            })
        hit = grams.join(b, keys=["g1", "g2"], join_type="inner")
        g = hit.group_by("doc_id").aggregate([("g1", "count")])
        return pa.table({
            "doc_id": g["doc_id"].cast(pa.int64()),
            "n_hit_grams": g["g1_count"].cast(pa.int64()),
        })

    return docs.map_batches(score, batch_format="pyarrow")


# ------------------------------------------- quality-aware representative

def keep_best_dedup(
    docs: rd.Dataset,
    *,
    threshold: float = 0.5,
    **lsh_kwargs,
) -> pa.Table:
    """Quality-aware near-dup representative selection: for every
    MinHash-LSH cluster keep the member with the MOST simple-analyzer
    tokens (tie-break lowest doc_id) instead of the min-id member —
    the curation policy real pipelines want (drop the truncated /
    boilerplate variant, keep the fullest copy).

    Returns one row per cluster: (cluster_id, best_id, n_members,
    best_n_tokens).  ``cluster_id`` is the min-label from
    :func:`minhash_lsh_dedup`, so the output composes with it.

    Scale shape: clustering is the fully distributed LSH path; the
    quality pass streams the corpus ONCE computing token counts ONLY
    for cluster members (the member-id set is ``ray.put`` broadcast —
    O(dup docs), tiny by definition since most of a deduped corpus is
    unique), and the driver argmax is O(members).  No extra shuffle.
    """
    import ray

    clusters = minhash_lsh_dedup(docs, threshold=threshold, **lsh_kwargs)
    empty = pa.table({
        "cluster_id": pa.array([], type=pa.int64()),
        "best_id": pa.array([], type=pa.int64()),
        "n_members": pa.array([], type=pa.int64()),
        "best_n_tokens": pa.array([], type=pa.int64()),
    })
    if clusters.num_rows == 0:
        return empty
    member_ids = np.sort(clusters["doc_id"].to_numpy())
    members_ref = ray.put(member_ids)

    def member_tokens(batch: pa.Table) -> pa.Table:
        members = ray.get(members_ref)
        ids = batch["doc_id"].to_numpy()
        sel = np.searchsorted(members, ids)
        sel[sel >= members.size] = 0
        mask = members[sel] == ids
        if not mask.any():
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "n_tokens": pa.array([], type=pa.int64()),
            })
        sub = batch.filter(pa.array(mask))
        # O(members) total across the whole corpus — bounded loop
        counts = [len(analyze_simple(t or ""))
                  for t in sub["text"].to_pylist()]
        return pa.table({
            "doc_id": sub["doc_id"].cast(pa.int64()),
            "n_tokens": pa.array(counts, type=pa.int64()),
        })

    rows = docs.map_batches(member_tokens, batch_format="pyarrow") \
        .take_all()                       # O(cluster members)
    ntok = {r["doc_id"]: r["n_tokens"] for r in rows}
    label = dict(zip(clusters["doc_id"].to_pylist(),
                     clusters["keep_id"].to_pylist()))
    best: dict[int, tuple[int, int]] = {}   # cluster -> (n_tokens, -best_id)
    size: dict[int, int] = {}
    for did, lab in label.items():
        n = ntok.get(did, 0)
        size[lab] = size.get(lab, 0) + 1
        cand = (n, -did)
        if lab not in best or cand > best[lab]:
            best[lab] = cand
    labs = sorted(best)
    return pa.table({
        "cluster_id": pa.array(labs, type=pa.int64()),
        "best_id": pa.array([-best[c][1] for c in labs], type=pa.int64()),
        "n_members": pa.array([size[c] for c in labs], type=pa.int64()),
        "best_n_tokens": pa.array([best[c][0] for c in labs],
                                  type=pa.int64()),
    })
