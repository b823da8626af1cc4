"""The columnar term cache against an independent read: every handle's
``PostingList`` (ids, tf, dl, scores, position keys, df) must equal a
decode of the postings parquet read directly with pyarrow — on a salted,
appended and tombstoned index, on doc-range handles, on a
checksum-verifying handle and on an index written without the
``last_doc`` column — and the buffer helpers the cache is built with
must equal the ``pyarrow.compute`` kernels they replace."""

import glob
import random
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

VOCAB = [f"w{i}" for i in range(30)]
HOT = {"w0": 4, "w1": 3}


def _salted_index(path: str) -> tuple[str, list[int]]:
    """Zipf-drawn texts over ``VOCAB`` with two salted hot terms, small
    blocks and row groups, an appended segment whose doc ids interleave
    with the base's, and tombstones.  Returns the dir and the doc ids."""
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               delete_docs)

    rng = random.Random(7)
    n = 600
    ids = sorted(rng.sample(range(1_000_000), n))
    delta = set(rng.sample(ids, n // 3))
    weights = [1.0 / (r + 1) for r in range(len(VOCAB))]
    texts = [" ".join(rng.choices(VOCAB, weights, k=rng.randint(3, 14)))
             for _ in range(n)]

    def table(keep):
        rows = [i for i in range(n) if keep(ids[i])]
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([ids[i] for i in rows], pa.int64()),
            "text": pa.array([texts[i] for i in rows])}))

    build_index(table(lambda d: d not in delta), path, analyzer="simple",
                num_buckets=4, block_size=8, row_group_size=8, hot_terms=HOT)
    append_index(table(lambda d: d in delta), path)
    victims = rng.sample(ids, 20)
    assert delete_docs(path, doc_ids=victims)["n_new"] == len(victims)
    return path, ids


def _segment_dirs(index_dir: str) -> list[str]:
    from pdfsearch_ray.state.manifest import IndexManifest

    m = IndexManifest.load(index_dir)
    return [index_dir] + [f"{index_dir}/segments/{s['name']}"
                          for s in m.segments if s["name"] != "base"]


def _direct_read(index_dir: str, term: str, doc_range=None) -> dict:
    """``term``'s postings as a handle on ``index_dir`` (with
    ``doc_range``) must present them, from every row group read whole
    with pyarrow: df over every row group; the blocks of the row groups
    whose [min first_doc, max last_doc] meets the range (every row group
    when there is no ``last_doc`` column), in (salt, segment, block)
    order, each (salt, segment) run cut to the blocks that can hold an
    in-range doc; then decoded with the codec."""
    from pdfsearch_ray.index.codec import (bm25_idf, bm25_wdl,
                                           decode_posting_blocks)
    from pdfsearch_ray.state.manifest import IndexManifest

    lo, hi = doc_range or (-(1 << 63), 1 << 63)
    df, rows = 0, []
    for seg, d in enumerate(_segment_dirs(index_dir)):
        for f in sorted(glob.glob(f"{d}/postings/*.parquet")):
            pf = pq.ParquetFile(f)
            for rg in range(pf.num_row_groups):
                t = pf.read_row_group(rg)
                dmin = pc.min(t["first_doc"]).as_py()
                # last_doc is null on a one-posting block: its last doc
                # is its first
                dmax = 1 << 63
                if "last_doc" in t.schema.names:
                    dmax = max(x for x in (pc.max(t["first_doc"]).as_py(),
                                           pc.max(t["last_doc"]).as_py())
                               if x is not None)
                t = t.filter(pc.equal(t["term"], term))
                df += pc.sum(t["n"]).as_py() or 0
                if dmax >= lo and dmin < hi:
                    rows += [dict(r, seg=seg) for r in t.to_pylist()]
    rows.sort(key=lambda r: (r["salt"], r["seg"], r["first_doc"]))
    kept = []
    for key in dict.fromkeys((r["salt"], r["seg"]) for r in rows):
        run = [r for r in rows if (r["salt"], r["seg"]) == key]
        kept += [r for j, r in enumerate(run)
                 if r["first_doc"] < hi
                 and not (j + 1 < len(run) and run[j + 1]["first_doc"] <= lo)]
    ids, tf = decode_posting_blocks(
        *([r[k] for r in kept]
          for k in ("first_doc", "n", "doc_blob", "tf_blob")))
    # each doc's length, from a read of every docs file
    cat = pa.concat_tables(
        pq.ParquetFile(f).read(columns=["doc_id", "dl"])
        for d in _segment_dirs(index_dir)
        for f in sorted(glob.glob(f"{d}/docs/*.parquet")))
    dl_by_doc = dict(zip(cat["doc_id"].to_pylist(), cat["dl"].to_pylist()))
    dl = np.array([dl_by_doc[i] for i in ids.tolist()], dtype=np.uint64)
    m = IndexManifest.load(index_dir)
    idf = float(bm25_idf(m.n_docs, df)) if df else 0.0
    return {"df": df, "ids": ids, "tf": tf, "dl": dl,
            "scores": idf * bm25_wdl(tf, dl, m.k1, m.b, m.avgdl),
            "positions": [p for r in kept for p in _block_positions(r)]}


def _block_positions(row: dict) -> list[np.ndarray]:
    """A block row's per-posting positions, one posting at a time: each
    takes its tf values of ``pos_blob`` (first position, then gaps)."""
    from pdfsearch_ray.index.codec import varint_decode

    tf = varint_decode(row["tf_blob"], count=row["n"]).tolist()
    vals = varint_decode(row["pos_blob"], count=sum(tf))
    out, i = [], 0
    for c in tf:
        out.append(np.cumsum(vals[i:i + c], dtype=np.uint64))
        i += c
    return out


def _assert_cache_equals_direct_read(idx, index_dir: str) -> int:
    """Every ``VOCAB`` term's PostingList on ``idx`` equals the direct
    read; returns the number of postings compared."""
    compared = 0
    for term, p in idx.postings(VOCAB + ["zzz_absent"]).items():
        want = _direct_read(index_dir, term, idx.doc_range)
        assert p.df == want["df"], term
        for key in ("ids", "tf", "dl", "scores"):
            got = getattr(p, key)
            assert got.dtype == want[key].dtype, (term, key, got.dtype)
            np.testing.assert_array_equal(got, want[key], err_msg=term)
        cands = np.unique(want["ids"])[::2]
        keys = [(int(np.searchsorted(cands, doc)) << 32) | int(x)
                for doc, pos in zip(want["ids"], want["positions"])
                if doc in set(cands.tolist()) for x in pos]
        np.testing.assert_array_equal(p.position_keys(cands),
                                      np.asarray(keys, dtype=np.uint64),
                                      err_msg=term)
        compared += int(want["ids"].size)
    return compared


def _ranges(ids: list[int]) -> list[tuple[int, int]]:
    cuts = [ids[len(ids) // 3], ids[2 * len(ids) // 3]]
    return [(-(1 << 62), cuts[0]), (cuts[0], cuts[1]), (cuts[1], 1 << 62),
            (cuts[0] + 1, cuts[0] + 2)]


def _drop_last_doc(index_dir: str, out: str) -> str:
    """A copy of ``index_dir`` whose postings files have no ``last_doc``
    column (as written before it existed), row groups kept."""
    shutil.copytree(index_dir, out)
    for d in _segment_dirs(out):
        for f in glob.glob(f"{d}/postings/*.parquet"):
            pf = pq.ParquetFile(f)
            schema = pf.schema_arrow.remove(
                pf.schema_arrow.get_field_index("last_doc"))
            with pq.ParquetWriter(f + ".tmp", schema) as w:
                for rg in range(pf.num_row_groups):
                    w.write_table(pf.read_row_group(rg).drop(["last_doc"]))
            shutil.move(f + ".tmp", f)
    return out


def test_term_cache_equals_a_direct_parquet_read(ray_session, tmp_path):
    from pdfsearch_ray.pipelines.query import BM25Index

    d, ids = _salted_index(str(tmp_path / "idx"))
    idx = BM25Index(d)
    assert idx.manifest.salt_spec and idx.manifest.segments
    assert not idx.live_mask(np.asarray(ids, dtype=np.uint64)).all()
    total = _assert_cache_equals_direct_read(idx, d)
    assert total > 1000

    for r in _ranges(ids):
        shard = BM25Index(d, doc_range=r)
        _assert_cache_equals_direct_read(shard, d)
    assert shard.io_stats["df_row_groups_read"] > 0

    verified = BM25Index(d, verify_checksums=True)
    assert _assert_cache_equals_direct_read(verified, d) == total

    old = _drop_last_doc(d, str(tmp_path / "no_last_doc"))
    assert "last_doc" not in pq.read_schema(
        glob.glob(f"{old}/postings/*.parquet")[0]).names
    assert _assert_cache_equals_direct_read(BM25Index(old), old) == total
    for r in _ranges(ids)[:2]:
        _assert_cache_equals_direct_read(BM25Index(old, doc_range=r), old)


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string(),
                                 pa.binary(), pa.large_binary()])
def test_buffer_helpers_equal_pyarrow_compute(typ):
    """On sliced, chunked columns with nulls, ``_take_table`` equals
    ``Table.take``, ``_gather_bytes`` gathers the same rows' bytes and
    ``_str_codes`` equals ``pyarrow.compute.index_in``, for rows in any
    order, repeated, in runs and scattered."""
    from pdfsearch_ray.index.arrays import (_bytes, _gather_bytes,
                                            _str_codes, _take_table)

    rng = np.random.default_rng(1)
    words = ["", "a", "ab", "ba", "abc", "acc", "w10", "w01", "zz"]
    vals = [None if rng.random() < 0.1 else words[rng.integers(len(words))]
            for _ in range(400)]
    if pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
        vals = [v if v is None else v.encode() for v in vals]
    arr = pa.array(vals, typ).slice(9, 300)
    col = pa.chunked_array([arr.slice(0, 120), arr.slice(120)])
    table = pa.table({"s": col, "n": pa.chunked_array(
        [pa.array(range(120)), pa.array([None] * 5 + list(range(175)))])})
    for rows in (rng.integers(0, 300, 500), np.arange(40, 260),
                 np.r_[np.arange(5, 9), np.arange(100, 97, -1), [299, 0, 0]],
                 np.empty(0, dtype=np.int64)):
        got = _take_table(table, rows)
        assert got.schema == table.schema
        assert got.to_pylist() == table.take(pa.array(rows, pa.int64())
                                             ).to_pylist()
        off, data = _gather_bytes(*_bytes(col), rows)
        want = [b"" if v is None else (v.encode() if isinstance(v, str)
                                       else v)
                for v in arr.take(pa.array(rows, pa.int64())).to_pylist()]
        assert [bytes(data[off[i]:off[i + 1]])
                for i in range(rows.size)] == want
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        values = ["ab", "w01", "", "abc", "nope"]
        got = _str_codes(col, values)
        want = pc.index_in(col, value_set=pa.array(values)).to_pylist()
        # a null row holds no string: -1, where index_in gives null
        assert got.tolist() == [-1 if w is None else w for w in want]
