"""Committed index files: the parquet writer policy and what opening an
index costs.

Every committed index file (docs catalog, posting blocks, tombstones;
base build, append segments, compaction) is written zstd-compressed at
level 9, with row-group statistics only on the columns a reader prunes on
and no dictionary over unique payloads.  Readers must not depend on that:
indexes written with the old layout (Snappy, statistics and dictionary
everywhere) keep serving, alone or mixed with new segments.

A serving handle keeps only the ids and scores of each decoded posting,
reads positions only when a reader asks for them, and imports neither
build code, ``pyarrow.dataset`` nor pandas."""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdfsearch_ray.index.codec import INDEX_WRITE_OPTIONS

QUERIES = [
    "quick brown fox",
    "documents per second",
    "the data will set you free",
    "search index page",
    "zzxqv unknownterm",
]

# the columns some reader prunes row groups on, per table
PRUNED = {
    "postings": {"bucket", "term", "first_doc", "last_doc"},
    "docs": {"doc_id"},
    "tombstones": {"doc_id"},
}
UNIQUE_PAYLOADS = {"text", "url", "hash",
                   "doc_blob", "tf_blob", "dl_blob", "pos_blob"}


def _corpus(n_rows: int = 500) -> pa.Table:
    """The fixture generator's pages as a documents table."""
    from pdfsearch_ray.fixtures.gen import generate_pages

    t = generate_pages(n_rows)
    return pa.table({"doc_id": pa.array(np.arange(n_rows, dtype=np.int64)),
                     "url": t["url"], "text": t["text"], "lang": t["lang"]})


def _committed_files(index_dir: str) -> dict[str, list[str]]:
    """Parquet files per table kind, over the base, every segment and
    the tombstones."""
    out: dict[str, list[str]] = {}
    for kind in ("docs", "postings"):
        out[kind] = sorted(
            glob.glob(f"{index_dir}/{kind}/*.parquet")
            + glob.glob(f"{index_dir}/segments/*/{kind}/*.parquet"))
    out["tombstones"] = sorted(
        glob.glob(f"{index_dir}/tombstones/*.parquet"))
    return out


def _policy_violations(kind: str, path: str) -> list[str]:
    bad = []
    md = pq.ParquetFile(path).metadata
    for rg in range(md.num_row_groups):
        for ci in range(md.num_columns):
            col = md.row_group(rg).column(ci)
            name = col.path_in_schema
            where = f"{os.path.basename(path)} rg{rg} {name}"
            if col.compression != "ZSTD":
                bad.append(f"{where}: codec {col.compression}")
            if col.is_stats_set != (name in PRUNED[kind]):
                bad.append(f"{where}: statistics {col.is_stats_set}")
            if name in UNIQUE_PAYLOADS and col.has_dictionary_page:
                bad.append(f"{where}: dictionary page")
    return bad


def _assert_policy(index_dir: str, kinds=("docs", "postings",
                                          "tombstones")) -> None:
    files = _committed_files(index_dir)
    bad = []
    for kind in kinds:
        assert files[kind], f"no {kind} files under {index_dir}"
        for f in files[kind]:
            bad += _policy_violations(kind, f)
    assert not bad, bad[:10]


def _taat_top10(idx, q: str) -> list[tuple[int, float]]:
    ids, sc = idx.score_terms(idx.query_terms(q))
    top = np.lexsort((ids, -sc))[:10]
    return list(zip(ids[top].tolist(), sc[top].tolist()))


def _assert_auto_equals_taat(index_dir: str) -> None:
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(index_dir)
    for q in QUERIES:
        ms = idx.search(q, max_results=10, with_spans=False, method="auto")
        got = [(m.doc_id, m.score) for m in ms.matches]
        assert got == _taat_top10(idx, q), q


def _rewrite(src: str, dst: str, **writer_options) -> None:
    """Write ``src``'s rows to ``dst`` with the given writer options,
    keeping the row groups."""
    pf = pq.ParquetFile(src)
    with pq.ParquetWriter(dst, pf.schema_arrow, **writer_options) as w:
        for rg in range(pf.num_row_groups):
            w.write_table(pf.read_row_group(rg))


def _rewrite_old_layout(directory: str) -> None:
    """Rewrite every file in ``directory`` the way the index used to be
    written (pyarrow defaults: Snappy, statistics and dictionary on every
    column), keeping the rows and the row groups."""
    for path in glob.glob(f"{directory}/*.parquet"):
        _rewrite(path, path + ".old", compression="snappy",
                 write_statistics=True, use_dictionary=True)
        os.replace(path + ".old", path)


def _victims(index_dir: str, n: int) -> list[int]:
    from pdfsearch_ray.pipelines.query import BM25Index

    ms = BM25Index(index_dir).search(QUERIES[0], max_results=n,
                                     with_spans=False)
    return [m.doc_id for m in ms.matches]


def test_committed_files_follow_writer_policy(ray_session, tmp_path):
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               delete_docs)

    t = _corpus()
    cut = int(t.num_rows * 0.6)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(t.slice(0, cut)), d, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang")
    append_index(rd.from_arrow(t.slice(cut)), d, url_col="url",
                 lang_col="lang")
    assert delete_docs(d, doc_ids=_victims(d, 3))["n_new"] == 3

    files = _committed_files(d)
    assert glob.glob(f"{d}/segments/*/postings/*.parquet")
    assert glob.glob(f"{d}/segments/*/docs/*.parquet")
    # the docs carry their text, so the unique-payload check covers it
    assert "text" in pq.read_schema(files["docs"][0]).names
    _assert_policy(d)

    # parquet does not record the zstd level, so pin it by size: the same
    # row groups at pyarrow's default level, under the same statistics
    # and dictionary policy, take more bytes
    written = default_level = 0
    for kind in ("docs", "postings"):
        policy = {k: v for k, v in INDEX_WRITE_OPTIONS[kind].items()
                  if k != "compression_level"}
        for i, path in enumerate(files[kind]):
            out = str(tmp_path / f"default-{kind}-{i}.parquet")
            _rewrite(path, out, **policy)
            written += os.path.getsize(path)
            default_level += os.path.getsize(out)
    assert written < default_level, (written, default_level)


def test_old_layout_index_serves_appends_and_compacts(ray_session,
                                                      tmp_path):
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               compact_index, delete_docs)

    t = _corpus()
    cut = int(t.num_rows * 0.6)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(t.slice(0, cut)), d, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang")
    for kind in ("docs", "postings"):
        _rewrite_old_layout(f"{d}/{kind}")
    old = pq.ParquetFile(_committed_files(d)["postings"][0]).metadata
    assert old.row_group(0).column(0).compression == "SNAPPY"
    assert all(old.row_group(0).column(i).is_stats_set
               for i in range(old.num_columns))

    # an old-layout base beside a new-layout segment and tombstones
    append_index(rd.from_arrow(t.slice(cut)), d, url_col="url",
                 lang_col="lang")
    assert delete_docs(d, doc_ids=_victims(d, 3))["n_new"] == 3
    _assert_auto_equals_taat(d)

    compact_index(d)
    _assert_auto_equals_taat(d)
    _assert_policy(d, kinds=("docs", "postings"))


def test_opening_an_index_imports_no_build_code(ray_session, tmp_path):
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index, delete_docs
    from pdfsearch_ray.pipelines.query import BM25Index

    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(_corpus()), d, num_buckets=4, analyzer="en",
                url_col="url", lang_col="lang")
    victims = _victims(d, 2)
    delete_docs(d, doc_ids=victims)
    want = [m.doc_id for m in
            BM25Index(d).search(QUERIES[0], max_results=5).matches]

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(f"""
        import json
        import sys
        from pdfsearch_ray.pipelines.query import BM25Index
        idx = BM25Index({d!r})
        ms = idx.search({QUERIES[0]!r}, max_results=5)
        assert ms.matches and ms.matches[0].spans, "no hits with spans"
        print(json.dumps([m.doc_id for m in ms.matches]))
        loaded = [m for m in ("pdfsearch_ray.pipelines.build", "ray.data",
                              "pyarrow.dataset")
                  if m in sys.modules]
        assert not loaded, loaded
    """)
    r = subprocess.run([sys.executable, "-c", code], cwd=repo,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr[-2000:]
    got = json.loads(r.stdout.strip().splitlines()[-1])
    assert got == want
    assert not set(victims) & set(got)


# -- what a serving handle keeps and reads --------------------------------


def _segmented_index(tmp_path) -> str:
    """A base, an appended segment and tombstones over them."""
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               delete_docs)

    t = _corpus()
    cut = int(t.num_rows * 0.6)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(t.slice(0, cut)), d, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang")
    append_index(rd.from_arrow(t.slice(cut)), d, url_col="url",
                 lang_col="lang")
    assert delete_docs(d, doc_ids=_victims(d, 5))["n_new"] == 5
    return d


def _segment_dirs(index_dir: str) -> list[str]:
    from pdfsearch_ray.state.manifest import IndexManifest

    m = IndexManifest.load(index_dir)
    return [index_dir] + [f"{index_dir}/segments/{s['name']}"
                          for s in m.segments if s["name"] != "base"]


def _full_read_reference(segment_dirs: list[str], term: str) -> dict:
    """ids, tf, dl and per-posting positions of ``term`` from a read of
    every posting column, blocks in (salt, segment, block) order."""
    from pdfsearch_ray.index.codec import (decode_positions,
                                           decode_posting_blocks)

    parts = []
    for seg, d in enumerate(segment_dirs):
        for f in sorted(glob.glob(f"{d}/postings/*.parquet")):
            t = pq.ParquetFile(f).read()
            t = t.filter(pc.equal(t["term"], term))
            parts.append(t.append_column(
                "seg", pa.array([seg] * t.num_rows, pa.int32())))
    t = pa.concat_tables(parts).sort_by(
        [("salt", "ascending"), ("seg", "ascending"),
         ("block_id", "ascending")])
    rows = t.to_pylist()
    ids, tf, dl = decode_posting_blocks(
        *([r[k] for r in rows]
          for k in ("first_doc", "n", "doc_blob", "tf_blob", "dl_blob")))
    positions = [p for r in rows for p in decode_positions(r["pos_blob"],
                                                           r["n"])]
    return {"ids": ids, "tf": tf, "dl": dl, "positions": positions}


def _assert_posting_readers_match(idx, segment_dirs: list[str]) -> None:
    terms = sorted({t for q in QUERIES for t in idx.query_terms(q)})
    posts = idx.postings(terms)
    checked = 0
    for term, p in posts.items():
        if p.df == 0:
            continue
        ref = _full_read_reference(segment_dirs, term)
        for key in ("ids", "tf", "dl"):
            got = getattr(p, key)
            assert got.dtype == np.uint64, (term, key, got.dtype)
            np.testing.assert_array_equal(got, ref[key], err_msg=term)
        cands = np.unique(ref["ids"])[::2]
        keys = []
        for doc, pos in zip(ref["ids"], ref["positions"]):
            code = np.searchsorted(cands, doc)
            if code < cands.size and cands[code] == doc:
                keys += [(int(code) << 32) | int(x) for x in pos]
        np.testing.assert_array_equal(p.position_keys(cands),
                                      np.asarray(keys, dtype=np.uint64),
                                      err_msg=term)
        dl_by_doc = dict(zip(ref["ids"].tolist(), ref["dl"].tolist()))
        np.testing.assert_array_equal(
            p.dl_of(cands), [float(dl_by_doc[c]) for c in cands.tolist()])
        checked += 1
    assert checked >= 5


def test_posting_readers_equal_a_full_column_read(ray_session, tmp_path):
    """PostingList tf, dl, dl_of and position_keys (decoded from the
    blobs and read on demand) equal a decode of every posting column,
    on a segmented and tombstoned index, on an in-memory index and on
    an old-layout index."""
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.state.manifest import IndexManifest

    d = _segmented_index(tmp_path)
    _assert_posting_readers_match(BM25Index(d), _segment_dirs(d))

    mem = BM25Index.from_tables(
        IndexManifest.load(d),
        pa.concat_tables(pq.ParquetFile(f).read() for f in
                         sorted(glob.glob(f"{d}/postings/*.parquet"))),
        pa.concat_tables(pq.ParquetFile(f).read() for f in
                         sorted(glob.glob(f"{d}/docs/*.parquet"))))
    _assert_posting_readers_match(mem, [d])

    for seg_dir in _segment_dirs(d):
        for kind in ("docs", "postings"):
            _rewrite_old_layout(f"{seg_dir}/{kind}")
    assert pq.ParquetFile(_committed_files(d)["postings"][0]).metadata \
        .row_group(0).column(0).compression == "SNAPPY"
    _assert_posting_readers_match(BM25Index(d), _segment_dirs(d))


def test_serving_handle_keeps_ids_and_scores_only(ray_session, tmp_path,
                                                  monkeypatch):
    """After a batch of searches on every scoring path no cached run
    holds decoded tf or dl, or a position blob; reading them through a
    PostingList does not put them on the handle either.  A cold read
    starts no thread — no Python thread, and, in a fresh process, no OS
    thread (Arrow's C++ pool) across opening a handle and a cold search
    with spans — and position reads are counted apart from the scoring
    read."""
    import threading

    from pdfsearch_ray.pipelines.query import BM25Index

    d = _segmented_index(tmp_path)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    idx = BM25Index(d)
    for q in QUERIES:
        for method in ("taat", "maxscore", "auto"):
            idx.search(q, max_results=5, method=method)
        idx.topk(q, 5)
    shard = BM25Index(d, doc_range=(0, 200))
    for q in QUERIES:
        shard.topk(q, 5)
    assert started == []
    assert shard.io_stats["df_row_groups_read"] > 0

    def held(handle) -> set[str]:
        return {k for runs in handle._term_cache.values()
                for r in runs for k in r}

    assert "ids" in held(idx) and "scores" in held(idx)
    assert not held(idx) & {"tf", "dl", "pos_blob"}
    stats = dict(idx.io_stats)
    assert stats["positions_row_groups_read"] == 0
    assert stats["postings_bytes_read"] > 0

    for term, p in idx.postings(idx.query_terms(QUERIES[0])).items():
        assert p.tf.size == p.dl.size == p.ids.size > 0
        assert p.position_keys(np.unique(p.ids)).size >= p.tf.sum()
    assert not held(idx) & {"tf", "dl", "pos_blob"}
    assert idx.io_stats["positions_row_groups_read"] > 0
    for key in ("postings_row_groups_read", "postings_bytes_read"):
        assert idx.io_stats[key] == stats[key], key

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(f"""
        import os
        from pdfsearch_ray.pipelines.query import BM25Index
        def n_threads():
            return len(os.listdir("/proc/self/task"))
        before = n_threads()
        idx = BM25Index({d!r})
        ms = idx.search({QUERIES[0]!r}, max_results=5, with_spans=True)
        assert ms.matches and ms.matches[0].spans, "no hits with spans"
        print(before, n_threads())
    """)
    r = subprocess.run([sys.executable, "-c", code], cwd=repo,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr[-2000:]
    before, after = map(int, r.stdout.split()[-2:])
    assert after == before, f"a cold search started {after - before} threads"


def test_scoring_never_reads_positions(ray_session, tmp_path):
    """A corrupt position blob fails a checksum-verifying handle (the
    block crc covers all four blobs), while a plain handle serves every
    search, spans included, because spans come from the doc text."""
    import pytest

    from pdfsearch_ray.pipelines.query import BM25Index, CorruptIndexError

    d = _segmented_index(tmp_path)
    want = {q: [(m.doc_id, m.score, m.spans) for m in
                BM25Index(d).search(q, max_results=5).matches]
            for q in QUERIES}
    f = _committed_files(d)["postings"][0]
    t = pq.ParquetFile(f).read()
    blobs = t["pos_blob"].to_pylist()
    blobs = [bytes([b[0] ^ 0x55]) + b[1:] for b in blobs]
    t = t.set_column(t.schema.get_field_index("pos_blob"), "pos_blob",
                     pa.array(blobs, type=pa.large_binary()))
    pq.write_table(t, f)

    idx = BM25Index(d)
    for q in QUERIES:
        got = [(m.doc_id, m.score, m.spans)
               for m in idx.search(q, max_results=5).matches]
        assert got == want[q], q
    with pytest.raises(CorruptIndexError, match="checksum mismatch"):
        BM25Index(d, verify_checksums=True).postings(t["term"].to_pylist())


def test_serving_imports_no_pandas(ray_session, tmp_path):
    """Serving converts, matches, sorts and gathers Arrow data through
    buffers: no search path, posting reader, checksum check or
    hydration of a local handle imports pandas or ``pyarrow.compute``,
    and neither does a warmed QueryEngine or ShardEngine replica."""
    import ray
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.engine import QueryEngine, ShardEngine

    d = _segmented_index(tmp_path)
    empty = str(tmp_path / "empty")
    build_index(rd.from_arrow(_corpus().slice(0, 0)), empty, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang")

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(f"""
        import sys
        import numpy as np
        from pdfsearch_ray.pipelines.query import BM25Index
        queries = {QUERIES!r}
        idx = BM25Index({d!r})
        for method in ("auto", "maxscore", "taat"):
            for q in queries:
                idx.search(q, max_results=5, method=method, with_spans=True)
        shard = BM25Index({d!r}, doc_range=(0, 200))
        for q in queries:
            shard.topk(q, 5)
        for p in idx.postings(idx.query_terms(queries[0])).values():
            assert p.tf.size == p.dl.size == p.ids.size > 0
            assert p.position_keys(np.unique(p.ids)).size >= p.tf.sum()
        BM25Index({d!r}, verify_checksums=True).search(queries[0])
        meta, _ = idx.fetch_doc_meta([0, 1, 2])
        assert meta.num_rows > 0
        assert BM25Index({empty!r}).search(queries[0]).total_matches == 0
        assert "pandas" not in sys.modules, "serving imported pandas"
        assert "pyarrow.compute" not in sys.modules, \
            "serving imported pyarrow.compute"
    """)
    r = subprocess.run([sys.executable, "-c", code], cwd=repo,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr[-2000:]

    engine = QueryEngine.remote(d)
    shard = ShardEngine.remote(d, 0, 200)
    try:
        ray.get([engine.warm.remote(QUERIES), shard.warm.remote(QUERIES)])
        ray.get([engine.search.remote(q, max_results=5) for q in QUERIES]
                + [shard.topk.remote(q, 5) for q in QUERIES])
        loaded = ray.get([a.__ray_call__.remote(
            lambda _self: [m for m in ("pandas", "pyarrow.compute")
                           if m in sys.modules]) for a in (engine, shard)])
        assert loaded == [[], []]
    finally:
        for a in (engine, shard):
            ray.kill(a)
