"""Distributed sketches (training-data addenda, round 5).

HyperLogLog approximate-distinct — the web-scale answer to "how big is
the vocabulary?" without the term groupby that question usually costs:
one streaming ``map_batches`` pass emits per-batch (register, rho)
partials (≤ 2^P rows per batch regardless of batch size), a
2^P-row ``groupby(register).max`` merges them, and the driver folds
4096 integers into the estimate.  At 10¹² docs the exact answer is an
all-to-all over the full token stream; the sketch moves O(batches · 2^P)
narrow integer rows.

Determinism + oracle: the 64-bit token hash is the LOW half of md5
(digest bytes 8..16 little-endian) == DuckDB ``md5_number_lower`` (the
simhash precedent, pipelines/oracles.py header), and the register
table is pure integers — so the ENTIRE sketch state is independently
recomputable in SQL and sits under the driver's value-hash gate; only
the float estimate (a deterministic fold of the gated registers) lives
outside it, accuracy-tested in pytest instead.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.tables import read_parquet_nometa, typed_pandas

HLL_P = 12                      # 2^12 = 4096 registers
HLL_M = 1 << HLL_P
_W_BITS = 64 - HLL_P            # 52: float64-exact bit_length range


def _hash_u64(tokens: list[str]) -> np.ndarray:
    md5 = hashlib.md5
    return np.array(
        [int.from_bytes(md5(t.encode()).digest()[8:16], "little")
         for t in tokens],
        dtype=np.uint64)


def hll_partial(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(register, rho) partials for a batch of uint64 hashes — fully
    vectorized; rho via float64 frexp, exact because w < 2^52."""
    reg = (hashes >> np.uint64(_W_BITS)).astype(np.int64)
    w = (hashes & np.uint64((1 << _W_BITS) - 1)).astype(np.float64)
    bl = np.frexp(w)[1]  # bit_length(w) for w>0, 0 for w==0
    rho = np.where(w == 0, _W_BITS + 1, _W_BITS + 1 - bl).astype(np.int64)
    # one row per register: per-batch max
    order = np.lexsort((-rho, reg))
    reg_s, rho_s = reg[order], rho[order]
    first = np.ones(len(reg_s), dtype=bool)
    first[1:] = reg_s[1:] != reg_s[:-1]
    return reg_s[first], rho_s[first]


def hll_estimate(reg: np.ndarray, rho: np.ndarray) -> float:
    """Standard HLL estimator (Flajolet et al. 2007) with the small-
    range linear-counting correction, over a sparse register table."""
    m = HLL_M
    full = np.zeros(m, dtype=np.int64)
    full[reg] = rho
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-full.astype(np.float64)))
    zeros = int((full == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def vocab_hll_sketch(sf_dir: str) -> pa.Table:
    """Gate query: the merged HLL register table (reg, max_rho) of the
    corpus vocabulary under simple-analyzer tokenization — integer
    sketch state, SQL-reproducible bit-for-bit."""
    from ray.data.aggregate import Max

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t["text"]), pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        # hash each UNIQUE token once per batch (Zipf: batch vocab ≪
        # token count); empty strings are not tokens
        uniq = pc.unique(flat).to_pylist()
        uniq = [u for u in uniq if u]
        if not uniq:
            return pa.table({"reg": pa.array([], type=pa.int64()),
                             "rho": pa.array([], type=pa.int64())})
        reg, rho = hll_partial(_hash_u64(uniq))
        return pa.table({"reg": pa.array(reg, type=pa.int64()),
                         "rho": pa.array(rho, type=pa.int64())})

    out = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("reg")
        .aggregate(Max("rho", alias_name="max_rho"))
        .to_pandas()
    )
    out = typed_pandas(out, {"reg": "int64", "max_rho": "int64"}) \
        .sort_values("reg")
    return pa.table({
        "reg": pa.array(out["reg"].astype("int64").tolist(),
                        type=pa.int64()),
        "max_rho": pa.array(out["max_rho"].astype("int64").tolist(),
                            type=pa.int64()),
    })


def vocab_hll_sketch_sql() -> str:
    """Oracle: DuckDB recomputes tokenization, md5_number_lower hashes,
    register/rho bit arithmetic (bin() gives integer bit_length) and
    the register max independently."""
    w_mask = (1 << _W_BITS) - 1
    return f"""
        WITH toks AS (
            SELECT unnest(regexp_split_to_array(lower(text),
                                                '[^a-z0-9]+')) AS term
            FROM documents
        ),
        terms AS (SELECT DISTINCT term FROM toks WHERE term <> ''),
        h AS (SELECT CAST(md5_number_lower(term) AS HUGEINT) AS h
              FROM terms),
        rr AS (
            SELECT CAST(h >> {_W_BITS} AS BIGINT) AS reg,
                   CAST(CASE WHEN (h & {w_mask}) = 0 THEN {_W_BITS + 1}
                        ELSE {_W_BITS + 1}
                             - length(bin(CAST(h & {w_mask} AS BIGINT)))
                        END AS BIGINT) AS rho
            FROM h
        )
        SELECT reg, max(rho) AS max_rho FROM rr
        GROUP BY reg ORDER BY reg
    """


# ------------------------------------------------------------ count-min

CMS_D = 4        # hash rows
CMS_W = 2048     # columns per row; eps ≈ e/W, delta ≈ e^-D


def cms_partial(terms: list[str], counts: np.ndarray) -> pa.Table:
    """Per-batch CMS partial: (row, col, n) for this batch's term
    counts — ≤ D × batch-vocab rows, merged downstream by a
    (row, col) sum groupby.  Hash_j(t) = md5-low64 of "j|t" — the
    DuckDB-reproducible convention (md5_number_lower)."""
    out_r, out_c, out_n = [], [], []
    for j in range(CMS_D):
        h = _hash_u64([f"{j}|{t}" for t in terms])
        col = (h % np.uint64(CMS_W)).astype(np.int64)
        # several terms can share a column: sum, don't overwrite
        agg = np.zeros(CMS_W, dtype=np.int64)
        np.add.at(agg, col, counts)
        nz = np.nonzero(agg)[0]
        out_r.extend([j] * len(nz))
        out_c.extend(nz.tolist())
        out_n.extend(agg[nz].tolist())
    return pa.table({"row": pa.array(out_r, type=pa.int64()),
                     "col": pa.array(out_c, type=pa.int64()),
                     "n": pa.array(out_n, type=pa.int64())})


def cms_query(sketch: dict[tuple[int, int], int], term: str) -> int:
    """Point estimate: min over rows (classic CMS upper-bound query)."""
    est = None
    for j in range(CMS_D):
        h = _hash_u64([f"{j}|{term}"])[0]
        v = sketch.get((j, int(h % np.uint64(CMS_W))), 0)
        est = v if est is None else min(est, v)
    return int(est or 0)


def term_cms_sketch(sf_dir: str) -> pa.Table:
    """Gate query: the merged Count-Min sketch of corpus term
    frequencies (simple-analyzer tokens) — (row, col, n), pure
    integers, SQL-reproducible bit-for-bit.  Same scale shape as the
    HLL: streaming partials, one tiny (row,col) groupby, O(D·W) driver
    state; heavy-hitter queries then cost zero corpus passes."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t["text"]), pattern="[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        vc = toks.flatten().value_counts()
        terms = vc.field("values").to_pylist()
        counts = vc.field("counts").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = [i for i, t_ in enumerate(terms) if t_]
        if not keep:
            return pa.table({"row": pa.array([], type=pa.int64()),
                             "col": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        return cms_partial([terms[i] for i in keep], counts[keep])

    out = (
        read_parquet_nometa(f"{sf_dir}/documents.parquet",
                            columns=["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["row", "col"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    out = typed_pandas(out, {"row": "int64", "col": "int64",
                             "n": "int64"}).sort_values(["row", "col"])
    return pa.table({
        "row": pa.array(out["row"].astype("int64").tolist(),
                        type=pa.int64()),
        "col": pa.array(out["col"].astype("int64").tolist(),
                        type=pa.int64()),
        "n": pa.array(out["n"].astype("int64").tolist(), type=pa.int64()),
    })


def term_cms_sketch_sql() -> str:
    """Oracle: DuckDB recomputes token counts, the "j|term" md5 hashes
    and the cell sums independently."""
    return f"""
        WITH toks AS (
            SELECT unnest(regexp_split_to_array(lower(text),
                                                '[^a-z0-9]+')) AS term
            FROM documents
        ),
        tf AS (SELECT term, count(*) AS c FROM toks
               WHERE term <> '' GROUP BY term),
        rows_ AS (SELECT unnest(range(0, {CMS_D})) AS r),
        cells AS (
            SELECT r, CAST(md5_number_lower(r || '|' || term)
                           % {CMS_W} AS BIGINT) AS col, c
            FROM tf CROSS JOIN rows_
        )
        SELECT r AS row, col, CAST(sum(c) AS BIGINT) AS n FROM cells
        GROUP BY r, col ORDER BY row, col
    """


# ------------------------------------------------- bloom snapshot dedup

# Cross-snapshot Bloom membership (the Dolma/CCNet incremental-crawl
# shape): build a Bloom filter over a PREVIOUS snapshot's content keys
# once, then stream the NEW snapshot through a membership pass —
# "have I already trained on this page?" without joining two corpora.
# Deterministic double hashing (Kirsch-Mitzenmacher) from the same
# md5-low64 the HLL/CMS use, so the SQL oracle reproduces every bit
# position exactly.

BLOOM_M = 1 << 16    # filter bits; fp = (set_bits/M)^K ~ 1e-11 at sf0.01
BLOOM_K = 7          # hash functions
BLOOM_DUP_MOD = 11   # gate synth: odd docs with doc_id%11==0 are
                     # planted duplicates of snapshot doc (doc_id - 1)


def bloom_positions(h: np.ndarray) -> np.ndarray:
    """(n, K) bit positions via double hashing: pos_i = (h1 + i*h2) % M
    with h1 = low32(h), h2 = high32(h)|1 — values stay < 2^36, so the
    HUGEINT arithmetic in the oracle is exact."""
    h = h.astype(np.uint64)
    h1 = h & np.uint64(0xFFFFFFFF)
    h2 = (h >> np.uint64(32)) | np.uint64(1)
    i = np.arange(BLOOM_K, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None])
            % np.uint64(BLOOM_M)).astype(np.int64)


def bloom_build(ds, text_col: str = "text") -> np.ndarray:
    """Distributed Bloom build: per-batch DISTINCT bit positions stream
    out (≤ M narrow int64 rows per batch), a tiny groupby dedups them,
    and the driver packs O(M/64) words.  At 10^12 docs the filter
    itself outgrows a broadcast (1.25 TB at 10 bits/key) — the scale
    path is KEY-HASH SHARDING: partition both snapshots by
    hash(key) % S, build one independent 1/S-size filter per shard,
    and run membership co-partitioned, never moving a filter between
    nodes.  This function is the per-shard kernel of that layout."""
    def partial(t: pa.Table) -> pa.Table:
        texts = [x or "" for x in t[text_col].to_pylist()]
        if not texts:
            return pa.table({"pos": pa.array([], type=pa.int64())})
        pos = np.unique(bloom_positions(_hash_u64(texts)))
        return pa.table({"pos": pa.array(pos, type=pa.int64())})

    parts = typed_pandas(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("pos").count(), {"pos": "int64"})
    words = np.zeros(BLOOM_M // 64, dtype=np.uint64)
    p = parts["pos"].to_numpy().astype(np.int64)
    np.bitwise_or.at(words, p // 64, np.uint64(1) << (p % 64).astype(np.uint64))
    return words


def bloom_member(words: np.ndarray, texts: list[str]) -> np.ndarray:
    """Vectorized membership: all K bits set → 1."""
    if not texts:
        return np.zeros(0, dtype=np.int64)
    pos = bloom_positions(_hash_u64(texts))
    bits = (words[pos // 64] >> (pos % 64).astype(np.uint64)) \
        & np.uint64(1)
    return bits.all(axis=1).astype(np.int64)


def bloom_snapshot_dedup(sf_dir: str) -> pa.Table:
    """Gate query: (doc_id, member) for every NEW-snapshot doc (odd
    doc_id) tested against a Bloom filter of the PREVIOUS snapshot
    (even doc_id).  Planted dups (odd, doc_id%11==0, keyed on doc
    doc_id-1's text) must flag member=1; everything else word-salad
    distinct (fp ~1e-11 at this fill).

    Scale shape: the snapshot streams once through the bloom_build
    partials (positions, never text, shuffle); the filter (8 KB here)
    broadcasts via ``ray.put``; the new snapshot streams once through
    the membership pass.  The planted-dup text map is gate synth,
    O(planted)."""
    import ray

    def _mod_take(mod: int, val: int, shift: int = 0):
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array((ids + shift) % mod == val))
        return f

    src = read_parquet_nometa(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    snap = src.map_batches(_mod_take(2, 0), batch_format="pyarrow")
    words = bloom_build(snap, "text")
    # gate synth: texts of dup sources (even ids whose successor is the
    # planted odd doc) — O(planted dups) driver state
    srcs = typed_pandas(
        snap.map_batches(_mod_take(BLOOM_DUP_MOD, 0, shift=1),
                         batch_format="pyarrow"),
        {"doc_id": "int64", "text": "object"})
    dup_src = {int(i) + 1: t for i, t in zip(srcs["doc_id"], srcs["text"])}
    ref = ray.put((words, dup_src))

    def member(t: pa.Table) -> pa.Table:
        w, dmap = ray.get(ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = [
            dmap.get(int(d), x) if d % BLOOM_DUP_MOD == 0 else (x or "")
            for d, x in zip(ids, t["text"].to_pylist())
        ]
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "member": pa.array(bloom_member(w, texts), type=pa.int64()),
        })

    out = typed_pandas(
        src.map_batches(_mod_take(2, 1), batch_format="pyarrow")
        .map_batches(member, batch_format="pyarrow"),
        {"doc_id": "int64", "member": "int64"}).sort_values("doc_id")
    return pa.table({
        "doc_id": pa.array(out["doc_id"].astype("int64").tolist(),
                           type=pa.int64()),
        "member": pa.array(out["member"].astype("int64").tolist(),
                           type=pa.int64()),
    })


def bloom_snapshot_dedup_sql() -> str:
    """Oracle: DuckDB recomputes every md5-low64 hash, the K
    double-hashed bit positions of both sides, and membership as
    'all K positions present in the snapshot position set'."""
    return f"""
        WITH snap AS (
            SELECT doc_id, text FROM documents WHERE doc_id % 2 = 0
        ),
        test AS (
            SELECT d.doc_id,
                   CASE WHEN d.doc_id % {BLOOM_DUP_MOD} = 0
                        THEN coalesce(s.text, d.text)
                        ELSE d.text END AS key_text
            FROM documents d
            LEFT JOIN snap s ON s.doc_id = d.doc_id - 1
            WHERE d.doc_id % 2 = 1
        ),
        spos AS (
            SELECT DISTINCT CAST((
                (CAST(md5_number_lower(text) AS HUGEINT) % 4294967296)
                + i * ((CAST(md5_number_lower(text) AS HUGEINT)
                        // 4294967296) | 1)
            ) % {BLOOM_M} AS BIGINT) AS p
            FROM snap, range({BLOOM_K}) t(i)
        ),
        tpos AS (
            SELECT doc_id, CAST((
                (CAST(md5_number_lower(key_text) AS HUGEINT) % 4294967296)
                + i * ((CAST(md5_number_lower(key_text) AS HUGEINT)
                        // 4294967296) | 1)
            ) % {BLOOM_M} AS BIGINT) AS p
            FROM test, range({BLOOM_K}) t(i)
        )
        SELECT tp.doc_id,
               CAST(min(CASE WHEN sp.p IS NULL THEN 0 ELSE 1 END)
                    AS BIGINT) AS member
        FROM tpos tp LEFT JOIN spos sp ON tp.p = sp.p
        GROUP BY tp.doc_id ORDER BY tp.doc_id
    """
