"""Committed index files: the parquet writer policy and what opening an
index costs.

Every committed index file (docs catalog, posting blocks, tombstones;
base build, append segments, compaction) is written zstd-compressed at
its table's level (14 for the posting blocks, 9 for the rest), with
row-group statistics only on the columns a reader prunes on, each
column in the encoding ``INDEX_WRITE_OPTIONS`` names for it, a CRC-32
on every page and no embedded Arrow schema, and DuckDB reads it.  A
handle opened with ``verify_checksums=True`` raises
``CorruptIndexError`` on a page whose bytes do not match its CRC.
Readers must not depend on that: indexes written with an older layout
(Snappy, statistics and dictionary everywhere; or zstd with
dictionaries and an embedded schema whose blobs are ``large_binary``)
keep serving, alone or mixed with new segments.

A serving handle keeps only the ids and scores of each decoded posting,
reads positions only when a reader asks for them, and imports neither
build code, ``pyarrow.dataset`` nor pandas.

A doc's length is stored once, in the docs catalog's ``dl`` column
(index format 2); posting blocks carry none.  A posting's positions
carry no count, and ``last_doc`` is null on single-posting blocks
(format 3).  Posting blocks have no ``crc`` and no ``block_id`` column:
pages carry CRCs, and a run's blocks are ordered by ``first_doc``
(format 4).  A postings file holds one bucket and is named by it, so
blocks have no ``bucket`` column, and ``max_wdl`` is null on
single-posting blocks, where a reader bounds the block by 1.0 (format
5).  A format-1 index (a ``dl_blob`` on every posting block), a format-2
index (counted positions, ``last_doc`` everywhere), a format-3 index (a
``crc`` and a ``block_id`` on every block, no page CRCs) or a format-4
index (a ``bucket`` column, a bound on every block, files numbered by
their place in the spill) is refused at open and at append, and
``compact_index`` rewrites it in format 5."""

from __future__ import annotations

import glob
import json
import os
import shutil
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
    "postings": {"term", "first_doc", "last_doc"},
    "docs": {"doc_id"},
    "tombstones": {"doc_id"},
}
UNIQUE_PAYLOADS = {"text", "url", "hash", "doc_blob", "tf_blob", "pos_blob"}


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
    if b"ARROW:schema" in (md.metadata or {}):
        bad.append(f"{os.path.basename(path)}: embedded Arrow schema")
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
            # the data encodings; RLE is the definition levels'
            got = set(col.encodings) - {"RLE"}
            want = INDEX_WRITE_OPTIONS[kind]["column_encoding"].get(name,
                                                                    "PLAIN")
            if got != {want}:
                bad.append(f"{where}: encodings {sorted(got)}")
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


def _assert_files_named_by_bucket(index_dir: str) -> None:
    """Every postings file of the base and each segment holds the blocks
    of exactly the bucket its name gives (``postings_files``), as the
    terms hash, and has no ``bucket`` column."""
    from pdfsearch_ray.functions.hashing import fnv1a64_str
    from pdfsearch_ray.state.manifest import IndexManifest, postings_files

    m = IndexManifest.load(index_dir)
    listed = 0
    for d in _segment_dirs(index_dir):
        pairs = postings_files(d)
        assert [p for p, _ in pairs] == sorted(
            glob.glob(f"{d}/postings/*.parquet"))
        for path, bucket in pairs:
            assert "bucket" not in pq.read_schema(path).names, path
            t = pq.read_table(path, columns=["term", "salt"])
            keys = {(term if term not in m.salt_spec else f"{term}#{salt}")
                    for term, salt in zip(t["term"].to_pylist(),
                                          t["salt"].to_pylist())}
            assert {fnv1a64_str(k) % m.num_buckets for k in keys} \
                == {bucket}, path
            listed += 1
    assert listed == len(_committed_files(index_dir)["postings"])


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


def _rewrite(src: str, dst: str, schema: pa.Schema | None = None,
             **writer_options) -> None:
    """Write ``src``'s rows to ``dst`` with the given writer options (and
    ``schema``, if given), keeping the row groups."""
    pf = pq.ParquetFile(src)
    schema = schema or pf.schema_arrow
    with pq.ParquetWriter(dst, schema, **writer_options) as w:
        for rg in range(pf.num_row_groups):
            w.write_table(pf.read_row_group(rg).cast(schema))


# The writer options of the two earlier layouts: pyarrow's defaults
# (Snappy, statistics and dictionary on every column), and the first
# zstd policy (statistics as today, dictionaries on the low-cardinality
# columns, no column encodings and the Arrow schema embedded, with the
# blobs typed ``large_binary``).
OLD_LAYOUTS = {
    "defaults": {kind: {"compression": "snappy", "write_statistics": True,
                        "use_dictionary": True}
                 for kind in ("postings", "docs", "tombstones")},
    "zstd_dictionaries": {
        "postings": {"compression": "zstd", "compression_level": 9,
                     "write_statistics": ("bucket", "term", "first_doc",
                                          "last_doc"),
                     "use_dictionary": ("term", "bucket", "salt", "n")},
        "docs": {"compression": "zstd", "compression_level": 9,
                 "write_statistics": ("doc_id",),
                 "use_dictionary": ("lang",)},
        "tombstones": {"compression": "zstd", "compression_level": 9,
                       "write_statistics": ("doc_id",),
                       "use_dictionary": False},
    },
}


def _large_blobs(schema: pa.Schema) -> pa.Schema:
    """``schema`` with every ``binary`` field ``large_binary``, as the
    encoder types the blobs."""
    return pa.schema([f.with_type(pa.large_binary())
                      if pa.types.is_binary(f.type) else f for f in schema])


def _rewrite_old_layout(directory: str, layout: str = "defaults") -> None:
    """Rewrite every file in ``directory`` (a ``postings``, ``docs`` or
    ``tombstones`` dir) the way the index used to be written under
    ``layout`` of ``OLD_LAYOUTS``, keeping the rows and the row groups."""
    kind = os.path.basename(directory)
    for path in glob.glob(f"{directory}/*.parquet"):
        _rewrite(path, path + ".old",
                 _large_blobs(pq.ParquetFile(path).schema_arrow),
                 **OLD_LAYOUTS[layout][kind])
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
    _assert_files_named_by_bucket(d)

    # parquet does not record the zstd level, so pin it by size: the same
    # row groups at pyarrow's default level, under the same statistics
    # and encodings, take more bytes; and so do the postings rewritten
    # at level 9, so a revert of their level fails here
    def sizes(kind: str, **level) -> tuple[int, int]:
        policy = {k: v for k, v in INDEX_WRITE_OPTIONS[kind].items()
                  if k != "compression_level"}
        written = rewritten = 0
        for i, path in enumerate(files[kind]):
            out = str(tmp_path / f"rewrite-{kind}-{i}.parquet")
            _rewrite(path, out, **policy, **level)
            written += os.path.getsize(path)
            rewritten += os.path.getsize(out)
        return written, rewritten

    (docs, docs_default), (post, post_default) = (sizes("docs"),
                                                  sizes("postings"))
    written, default_level = docs + post, docs_default + post_default
    assert written < default_level, (written, default_level)
    written, level_9 = sizes("postings", compression_level=9)
    assert written < level_9, (written, level_9)


def _answers(index_dir: str) -> list:
    """Every query's ``auto`` top-10 with spans: ids, urls, scores and
    spans, and the match count."""
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(index_dir)
    out = []
    for q in QUERIES:
        ms = idx.search(q, max_results=10, with_spans=True, method="auto")
        out.append((ms.total_matches, [(m.doc_id, m.url, m.score, m.spans)
                                       for m in ms.matches]))
    return out


def _assert_old_layout(index_dir: str, layout: str) -> None:
    """The rewritten base files carry ``layout``'s marks."""
    files = _committed_files(index_dir)
    post = pq.ParquetFile(files["postings"][0])
    rg0 = post.metadata.row_group(0)
    cols = {rg0.column(i).path_in_schema: rg0.column(i)
            for i in range(rg0.num_columns)}
    assert b"ARROW:schema" in post.metadata.metadata
    assert post.schema_arrow.field("pos_blob").type == pa.large_binary()
    assert cols["term"].has_dictionary_page
    if layout == "defaults":
        assert cols["term"].compression == "SNAPPY"
        assert all(c.is_stats_set for c in cols.values())
        return
    assert {c.compression for c in cols.values()} == {"ZSTD"}
    assert not cols["doc_blob"].is_stats_set
    for kind in ("docs", "tombstones"):
        md = pq.ParquetFile(files[kind][0]).metadata
        assert b"ARROW:schema" in md.metadata
        doc_id = md.row_group(0).column(0)
        assert doc_id.path_in_schema == "doc_id"
        assert set(doc_id.encodings) - {"RLE"} == {"PLAIN"}


def test_old_layout_index_serves_appends_and_compacts(ray_session,
                                                      tmp_path):
    """A base and tombstones written in either older layout serve,
    append, delete and compact beside files written now, with the same
    answers as the same index written in today's layout throughout."""
    for layout in sorted(OLD_LAYOUTS):
        _check_old_layout(tmp_path / layout, layout)


def _check_old_layout(tmp_path, layout: str) -> None:
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               compact_index, delete_docs)

    t = _corpus()
    cut = int(t.num_rows * 0.6)
    d, ref = str(tmp_path / "idx"), str(tmp_path / "ref")
    build_index(rd.from_arrow(t.slice(0, cut)), d, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang")
    assert delete_docs(d, doc_ids=_victims(d, 2))["n_new"] == 2
    shutil.copytree(d, ref)
    for kind in ("docs", "postings", "tombstones"):
        _rewrite_old_layout(f"{d}/{kind}", layout)
    _assert_old_layout(d, layout)
    assert _answers(d) == _answers(ref)

    # an old-layout base and tombstones beside a new-layout segment and
    # tombstones
    for x in (d, ref):
        append_index(rd.from_arrow(t.slice(cut)), x, url_col="url",
                     lang_col="lang")
    victims = _victims(ref, 3)
    for x in (d, ref):
        assert delete_docs(x, doc_ids=victims)["n_new"] == 3
    assert _answers(d) == _answers(ref)
    _assert_auto_equals_taat(d)

    for x in (d, ref):
        compact_index(x)
    assert _answers(d) == _answers(ref)
    _assert_auto_equals_taat(d)
    _assert_policy(d, kinds=("docs", "postings"))


def test_duckdb_reads_every_index_file(ray_session, tmp_path):
    """DuckDB reads every committed postings, docs and tombstones file
    of a built, appended, deleted and then compacted index, with the
    rows and values pyarrow reads."""
    import duckdb

    from pdfsearch_ray.pipelines.build import compact_index

    def check(index_dir: str, kinds: tuple[str, ...]) -> None:
        files = _committed_files(index_dir)
        for kind in kinds:
            assert files[kind], kind
            for f in files[kind]:
                want = pq.read_table(f)
                got = duckdb.sql(f"SELECT * FROM read_parquet('{f}')").arrow()
                assert got.num_rows == want.num_rows, f
                assert got.column_names == want.column_names, f
                for name in want.column_names:
                    assert got[name].to_pylist() == want[name].to_pylist(), \
                        (f, name)

    d = _segmented_index(tmp_path)
    check(d, ("postings", "docs", "tombstones"))
    compact_index(d)
    check(d, ("postings", "docs"))


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


def _catalog_dl(segment_dirs: list[str]) -> dict[int, int]:
    """doc_id -> dl from a read of every docs file."""
    t = pa.concat_tables(
        pq.ParquetFile(f).read(columns=["doc_id", "dl"])
        for d in segment_dirs
        for f in sorted(glob.glob(f"{d}/docs/*.parquet")))
    return dict(zip(t["doc_id"].to_pylist(), t["dl"].to_pylist()))


def _full_read_reference(segment_dirs: list[str], term: str) -> dict:
    """ids, tf, dl and per-posting positions of ``term`` from a read of
    every posting column (dl from every docs file), blocks in (salt,
    segment, first doc) order."""
    from pdfsearch_ray.index.codec import decode_posting_blocks

    parts = []
    for seg, d in enumerate(segment_dirs):
        for f in sorted(glob.glob(f"{d}/postings/*.parquet")):
            t = pq.ParquetFile(f).read()
            t = t.filter(pc.equal(t["term"], term))
            parts.append(t.append_column(
                "seg", pa.array([seg] * t.num_rows, pa.int32())))
    t = pa.concat_tables(parts).sort_by(
        [("salt", "ascending"), ("seg", "ascending"),
         ("first_doc", "ascending")])
    rows = t.to_pylist()
    ids, tf = decode_posting_blocks(
        *([r[k] for r in rows]
          for k in ("first_doc", "n", "doc_blob", "tf_blob")))
    dl_by_doc = _catalog_dl(segment_dirs)
    dl = np.array([dl_by_doc[i] for i in ids.tolist()], dtype=np.uint64)
    positions = [p for r in rows for p in _block_positions(r)]
    return {"ids": ids, "tf": tf, "dl": dl, "positions": positions}


def _block_positions(row: dict) -> list[np.ndarray]:
    """A posting block row's per-posting positions, one posting at a
    time: posting i takes its tf (from the row's ``tf_blob``) values of
    the ``pos_blob`` stream — its first position, then the gaps."""
    from pdfsearch_ray.index.codec import varint_decode

    tf = varint_decode(row["tf_blob"], count=row["n"]).tolist()
    vals = varint_decode(row["pos_blob"], count=sum(tf))
    out, i = [], 0
    for c in tf:
        out.append(np.cumsum(vals[i:i + c], dtype=np.uint64))
        i += c
    return out


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


def _flip_page_byte(path: str, column: str, rg: int = 0) -> None:
    """Flip, in place, the last byte of ``column``'s chunk in row group
    ``rg`` of ``path``: a byte of the chunk's last data page (index
    files have no dictionary pages)."""
    meta = pq.ParquetFile(path).metadata.row_group(rg)
    col = next(meta.column(i) for i in range(meta.num_columns)
               if meta.column(i).path_in_schema == column)
    assert not col.has_dictionary_page
    at = col.data_page_offset + col.total_compressed_size - 1
    with open(path, "r+b") as f:
        f.seek(at)
        byte = f.read(1)[0]
        f.seek(at)
        f.write(bytes([byte ^ 0x55]))


def test_scoring_never_reads_positions(ray_session, tmp_path):
    """With a corrupt ``pos_blob`` page in a postings file, a plain and
    a checksum-verifying handle serve every search, spans included,
    because scoring never reads positions and spans come from the doc
    text; the verifying handle raises ``CorruptIndexError`` once a
    reader asks for that row group's positions."""
    import pytest

    from pdfsearch_ray.pipelines.query import BM25Index, CorruptIndexError

    d = _segmented_index(tmp_path)
    want = {q: [(m.doc_id, m.score, m.spans) for m in
                BM25Index(d).search(q, max_results=5).matches]
            for q in QUERIES}
    f = _committed_files(d)["postings"][0]
    term = pq.ParquetFile(f).read_row_group(0, columns=["term"])[
        "term"][0].as_py()
    _flip_page_byte(f, "pos_blob")

    for idx in (BM25Index(d), BM25Index(d, verify_checksums=True)):
        for q in QUERIES:
            got = [(m.doc_id, m.score, m.spans)
                   for m in idx.search(q, max_results=5).matches]
            assert got == want[q], q
    p = BM25Index(d, verify_checksums=True).postings([term])[term]
    with pytest.raises(CorruptIndexError, match="CRC"):
        p.position_keys(np.unique(p.ids))


def test_corrupt_page_fails_a_verifying_handle(ray_session, tmp_path):
    """A byte flipped inside a data page of a committed file — the
    postings and the docs of a base, of an appended segment and of a
    compaction's output, and the tombstones of the segmented and of the
    compacted index — makes a checksum-verifying handle raise
    ``CorruptIndexError`` naming the file, from the page CRC.  pyarrow
    passes a page that has no CRC, so this also shows each of those
    files was written with page CRCs."""
    import pytest

    from pdfsearch_ray.pipelines.build import compact_index, delete_docs
    from pdfsearch_ray.pipelines.query import BM25Index, CorruptIndexError

    d = _segmented_index(tmp_path)
    comp = str(tmp_path / "compacted")
    shutil.copytree(d, comp)
    compact_index(comp)
    assert delete_docs(comp, doc_ids=_victims(comp, 3))["n_new"] == 3

    # one file per table and directory: base and segment, compacted
    cases = {}
    for src in (d, comp):
        for kind, files in _committed_files(src).items():
            for f in files:
                cases.setdefault((src, os.path.dirname(f)), (kind, f))
    kinds = [kind for kind, _ in cases.values()]
    assert kinds.count("postings") == kinds.count("docs") == 3
    assert kinds.count("tombstones") == 2

    column = {"postings": "doc_blob", "docs": "url", "tombstones": "doc_id"}
    for i, (src, _dir) in enumerate(sorted(cases)):
        kind, path = cases[src, _dir]
        work = str(tmp_path / f"case{i}")
        shutil.copytree(src, work)
        f = work + path[len(src):]
        rg0 = pq.ParquetFile(f).read_row_group(0)
        _flip_page_byte(f, column[kind])
        with pytest.raises(CorruptIndexError, match="CRC") as err:
            idx = BM25Index(work, verify_checksums=True)
            if kind == "postings":
                idx.postings([rg0["term"][0].as_py()])
            elif kind == "docs":
                idx.fetch_doc_meta([rg0["doc_id"][0].as_py()])
        assert os.path.basename(f) in str(err.value), (kind, f)


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


# -- one doc length per doc: the docs catalog's dl column ---------------


def _analyzed_dl(t: pa.Table) -> dict[int, int]:
    """doc_id -> the ``en`` analyzer's token count of its text."""
    from pdfsearch_ray.analysis.analyzer import get_analyzer

    analyze = get_analyzer("en")
    return {i: len(analyze(x)) if x else 0 for i, x in
            zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}


def test_doc_lengths_live_in_the_docs_catalog(ray_session, tmp_path):
    """No postings file of a base, a segment or a compacted index has a
    ``dl_blob``; every docs file carries ``dl`` equal to the analyzer's
    token count of the doc (0 for a doc with no text), the catalog keeps
    a row per corpus row, and ``PostingList.dl_of`` gives those counts
    on a doc-range handle and on an appended segment."""
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               compact_index)
    from pdfsearch_ray.pipelines.query import BM25Index

    t = _corpus()
    # a doc with no text still gets a catalog row, with dl 0
    texts = t["text"].to_pylist()
    texts[7] = ""
    t = t.set_column(t.schema.get_field_index("text"), "text",
                     pa.array(texts, type=pa.string()))
    want = _analyzed_dl(t)
    assert want[7] == 0 and max(want.values()) > 0
    cut = int(t.num_rows * 0.6)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(t.slice(0, cut)), d, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang",
                tokenize_batch_size=64)
    app = append_index(rd.from_arrow(t.slice(cut)), d, url_col="url",
                       lang_col="lang")
    # every base row, and every delta row the append did not skip as
    # already-indexed content
    n_rows = cut + app["n_added"]
    assert app["n_added"] > 0

    def check_files(index_dir: str) -> None:
        files = _committed_files(index_dir)
        assert files["postings"] and files["docs"]
        for f in files["postings"]:
            assert "dl_blob" not in pq.read_schema(f).names, f
        cat = _catalog_dl(_segment_dirs(index_dir))
        rows = sum(pq.ParquetFile(f).metadata.num_rows
                   for f in files["docs"])
        assert rows == len(cat) == n_rows
        assert set(range(cut)) <= set(cat)
        assert cat == {i: want[i] for i in cat}

    check_files(d)
    assert glob.glob(f"{d}/segments/*/docs/*.parquet")

    lo, hi = 100, 400
    for handle in (BM25Index(d), BM25Index(d, doc_range=(lo, hi))):
        terms = handle.query_terms(" ".join(QUERIES))
        checked = in_segment = 0
        for term, p in handle.postings(terms).items():
            ids = np.unique(p.ids).astype(np.int64)
            if handle.doc_range is not None:
                ids = ids[(ids >= lo) & (ids < hi)]
            if not ids.size:
                continue
            np.testing.assert_array_equal(
                p.dl_of(ids), [float(want[i]) for i in ids.tolist()])
            np.testing.assert_array_equal(
                p.dl, [want[i] for i in p.ids.tolist()])
            checked += 1
            in_segment += bool((ids >= cut).any())
        assert checked >= 5 and in_segment >= 3
        assert handle.io_stats["dl_row_groups_read"] > 0
        assert handle.io_stats["docs_row_groups_read"] == 0

    compact_index(d)
    check_files(d)


# format 4's writer policy: a bucket column, with statistics, on every
# posting block, and the tf and positions blobs PLAIN
V4_WRITE_OPTIONS = {**INDEX_WRITE_OPTIONS, "postings": {
    **INDEX_WRITE_OPTIONS["postings"],
    "write_statistics": ("bucket", "term", "first_doc", "last_doc"),
    "column_encoding": {**INDEX_WRITE_OPTIONS["postings"]["column_encoding"],
                        "bucket": "PLAIN", "tf_blob": "PLAIN",
                        "pos_blob": "PLAIN"}}}
# format 3's: format 4's with no page CRCs, and a block number and a
# block crc on every posting block
V3_WRITE_OPTIONS = {
    kind: {**opts, "write_page_checksum": False} for kind, opts in
    V4_WRITE_OPTIONS.items()}
V3_WRITE_OPTIONS["postings"]["column_encoding"] = {
    **V4_WRITE_OPTIONS["postings"]["column_encoding"],
    "block_id": "DELTA_BINARY_PACKED", "crc": "PLAIN"}


def _set_format(index_dir: str, version: int) -> None:
    """Make the manifest and every build config say format ``version``."""
    from pdfsearch_ray.state.manifest import IndexManifest

    for d in _segment_dirs(index_dir):
        cfg_path = f"{d}/.build_config.json"
        if os.path.exists(cfg_path):
            with open(cfg_path) as f:
                cfg = json.load(f)
            cfg["format_version"] = version
            with open(cfg_path, "w") as f:
                json.dump(cfg, f)
    m = IndexManifest.load(index_dir)
    m.format_version = version
    m.save(index_dir)


def _as_format_4(index_dir: str) -> None:
    """Rewrite an index the way format 4 stored it: every posting block
    carries its bucket (``bucket``, first, with statistics), a
    single-posting block its posting's own weight as ``max_wdl`` (under
    its segment's ``avgdl_baked``, rounded up to float32), the tf and
    positions blobs are PLAIN, each postings file is numbered by its
    bucket's place among the segment's ``bucket=<b>`` spill dirs
    (``part-<i>``), and the manifest and the build configs say format
    4."""
    from pdfsearch_ray.index.codec import bm25_wdl, varint_decode
    from pdfsearch_ray.state.manifest import IndexManifest, postings_files

    m = IndexManifest.load(index_dir)
    baked = {s["name"]: s["avgdl_baked"] for s in m.segments}
    dl_by_doc = _catalog_dl(_segment_dirs(index_dir))
    for d in _segment_dirs(index_dir):
        avgdl = baked.get(os.path.basename(d), baked.get("base", m.avgdl))
        spill_order = sorted(postings_files(d),
                             key=lambda pb: f"bucket={pb[1]}")
        for i, (f, bucket) in enumerate(spill_order):
            pf = pq.ParquetFile(f)
            t = pf.read()
            bound = []
            for r in t.select(["first_doc", "n", "tf_blob",
                               "max_wdl"]).to_pylist():
                w = r["max_wdl"]
                if w is None:
                    exact = bm25_wdl(
                        varint_decode(r["tf_blob"], count=1),
                        np.array([dl_by_doc[r["first_doc"]]]),
                        m.k1, m.b, avgdl)[0]
                    w = np.float32(exact)
                    if float(w) < exact:
                        w = np.nextafter(w, np.float32(np.inf))
                bound.append(float(w))
            t = t.set_column(t.schema.get_field_index("max_wdl"), "max_wdl",
                             pa.array(bound, pa.float32()))
            t = t.add_column(0, "bucket",
                             pa.array([bucket] * t.num_rows, pa.int32()))
            with pq.ParquetWriter(f"{d}/postings/part-{i:05d}.parquet.v4",
                                  t.schema,
                                  **V4_WRITE_OPTIONS["postings"]) as w:
                at = 0
                for rg in range(pf.num_row_groups):
                    n = pf.metadata.row_group(rg).num_rows
                    w.write_table(t.slice(at, n))
                    at += n
            os.remove(f)
        for f in glob.glob(f"{d}/postings/*.v4"):
            os.replace(f, f[:-len(".v4")])
    _set_format(index_dir, 4)


def _as_format_3(index_dir: str) -> None:
    """Rewrite an index the way format 3 stored it: format 4's postings
    (``_as_format_4``), and every posting block carries its number in
    its (term, salt) run (``block_id``, after ``salt``) and a crc32
    chained over its doc, tf and pos blobs (``crc``, last), no page of
    any file has a CRC, and the manifest and the build configs say
    format 3."""
    from zlib import crc32

    _as_format_4(index_dir)
    files = _committed_files(index_dir)
    for kind in ("docs", "tombstones"):
        for f in files[kind]:
            _rewrite(f, f + ".v3", **V3_WRITE_OPTIONS[kind])
            os.replace(f + ".v3", f)
    for f in files["postings"]:
        pf = pq.ParquetFile(f)
        t = pf.read()
        runs = list(zip(t["term"].to_pylist(), t["salt"].to_pylist()))
        block_id = [0] * len(runs)
        for i in range(1, len(runs)):
            if runs[i] == runs[i - 1]:
                block_id[i] = block_id[i - 1] + 1
        crc = [crc32(p, crc32(tf, crc32(doc))) for doc, tf, p in zip(
            t["doc_blob"].to_pylist(), t["tf_blob"].to_pylist(),
            t["pos_blob"].to_pylist())]
        t = t.add_column(t.schema.get_field_index("first_doc"), "block_id",
                         pa.array(block_id, pa.int32()))
        t = t.append_column("crc", pa.array(crc, pa.int64()))
        with pq.ParquetWriter(f + ".v3", t.schema,
                              **V3_WRITE_OPTIONS["postings"]) as w:
            at = 0
            for rg in range(pf.num_row_groups):
                n = pf.metadata.row_group(rg).num_rows
                w.write_table(t.slice(at, n))
                at += n
        os.replace(f + ".v3", f)
    _set_format(index_dir, 3)


def _as_format_2(index_dir: str) -> None:
    """Rewrite an index the way format 2 stored it: format 3's block
    numbers, block crcs and pages (``_as_format_3``), and each posting's
    positions begin with their count (``varint(count)``, then the first
    position and the gaps), ``last_doc`` is filled on single-posting
    blocks too, the block crc covers those blobs, and the manifest and
    the build config say format 2."""
    from zlib import crc32

    from pdfsearch_ray.index.codec import varint_decode, varint_encode

    _as_format_3(index_dir)
    for d in _segment_dirs(index_dir):
        for f in glob.glob(f"{d}/postings/*.parquet"):
            pf = pq.ParquetFile(f)
            with pq.ParquetWriter(f + ".v2", pf.schema_arrow,
                                  **V3_WRITE_OPTIONS["postings"]) as w:
                for rg in range(pf.num_row_groups):
                    t = pf.read_row_group(rg)
                    pos = []
                    for r in t.select(["n", "tf_blob",
                                       "pos_blob"]).to_pylist():
                        tf = varint_decode(r["tf_blob"], count=r["n"])
                        vals = varint_decode(r["pos_blob"],
                                             count=int(tf.sum()))
                        at = np.cumsum(tf, dtype=np.int64) - tf.astype(
                            np.int64)
                        pos.append(varint_encode(
                            np.insert(vals, at, tf).astype(np.uint64)))
                    crc = [crc32(p, crc32(tf, crc32(doc)))
                           for doc, tf, p in zip(
                               t["doc_blob"].to_pylist(),
                               t["tf_blob"].to_pylist(), pos)]
                    last = pc.coalesce(t["last_doc"], t["first_doc"])
                    for name, col in (("pos_blob", pa.array(
                            pos, type=t.schema.field("pos_blob").type)),
                            ("crc", pa.array(crc, type=pa.int64())),
                            ("last_doc", last)):
                        t = t.set_column(t.schema.get_field_index(name),
                                         name, col)
                    w.write_table(t)
            os.replace(f + ".v2", f)
    _set_format(index_dir, 2)


def _as_format_1(index_dir: str) -> None:
    """Rewrite an index the way format 1 stored it: format 2's positions
    and ``last_doc`` (``_as_format_2``), and every posting block carries
    its docs' lengths as a varint ``dl_blob`` (covered by the block
    crc), the docs catalog has no ``dl`` column, the manifest says
    format 1 and the build config has no ``format_version`` key."""
    from zlib import crc32

    from pdfsearch_ray.index.codec import (decode_posting_blocks,
                                           varint_encode)
    from pdfsearch_ray.state.manifest import IndexManifest

    _as_format_2(index_dir)
    dirs = _segment_dirs(index_dir)
    dl_by_doc = _catalog_dl(dirs)
    for d in dirs:
        for f in glob.glob(f"{d}/postings/*.parquet"):
            pf = pq.ParquetFile(f)
            with pq.ParquetWriter(f + ".v1",
                                  _v1_schema(pf.schema_arrow)) as w:
                for rg in range(pf.num_row_groups):
                    t = pf.read_row_group(rg)
                    ns = t["n"].to_pylist()
                    ids, _ = decode_posting_blocks(
                        t["first_doc"].to_pylist(), ns,
                        t["doc_blob"].to_pylist(), t["tf_blob"].to_pylist())
                    cut = np.cumsum(ns)[:-1]
                    dl = [varint_encode(np.array(
                        [dl_by_doc[i] for i in part.tolist()], np.uint64))
                        for part in np.split(ids, cut)]
                    crc = [crc32(p, crc32(x, crc32(tf, crc32(doc))))
                           for doc, tf, x, p in zip(
                               t["doc_blob"].to_pylist(),
                               t["tf_blob"].to_pylist(), dl,
                               t["pos_blob"].to_pylist())]
                    t = t.add_column(
                        t.schema.get_field_index("pos_blob"), "dl_blob",
                        pa.array(dl, type=pa.large_binary()))
                    t = t.set_column(t.schema.get_field_index("crc"), "crc",
                                     pa.array(crc, type=pa.int64()))
                    w.write_table(t)
            os.replace(f + ".v1", f)
        for f in glob.glob(f"{d}/docs/*.parquet"):
            pq.write_table(pq.read_table(f).drop_columns(["dl"]), f)
        cfg_path = f"{d}/.build_config.json"
        if os.path.exists(cfg_path):
            with open(cfg_path) as f:
                cfg = json.load(f)
            cfg.pop("format_version", None)
            with open(cfg_path, "w") as f:
                json.dump(cfg, f)
    m = IndexManifest.load(index_dir)
    m.format_version = 1
    m.save(index_dir)


def _v1_schema(schema: pa.Schema) -> pa.Schema:
    return schema.insert(schema.get_field_index("pos_blob"),
                         pa.field("dl_blob", pa.large_binary()))


def test_format_1_index_is_refused_and_compacted(ray_session, tmp_path):
    """Opening or appending to a format-1 index raises an error that
    names ``compact_index``; ``compact_index`` reads only its docs
    catalog and tombstones, writes the current format, and then serves
    the same ``auto`` top-10 as a fresh build over the same rows."""
    import pytest
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               compact_index)
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.state.manifest import (FORMAT_VERSION,
                                              IndexFormatError,
                                              IndexManifest)

    t = _corpus()
    cut = int(t.num_rows * 0.6)
    d = _segmented_index(tmp_path)
    deleted = set(IndexManifest.load(d).tombstone_ids(d).tolist())
    live = {k: v for k, v in _catalog_dl(_segment_dirs(d)).items()
            if k not in deleted}
    _as_format_1(d)
    assert "dl_blob" in pq.read_schema(
        _committed_files(d)["postings"][0]).names
    with pytest.raises(IndexFormatError, match="compact_index"):
        BM25Index(d)
    with pytest.raises(IndexFormatError, match="compact_index"):
        append_index(rd.from_arrow(t.slice(cut)), d, url_col="url",
                     lang_col="lang")

    m = compact_index(d)
    assert m.format_version == IndexManifest.load(d).format_version \
        == FORMAT_VERSION
    for f in _committed_files(d)["postings"]:
        assert "dl_blob" not in pq.read_schema(f).names
    assert _catalog_dl([d]) == live

    keep = pa.array([i in live for i in t["doc_id"].to_pylist()])
    fresh = str(tmp_path / "fresh")
    build_index(rd.from_arrow(t.filter(keep)), fresh, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang")
    got, ref = BM25Index(d), BM25Index(fresh)
    for q in QUERIES:
        a = got.search(q, max_results=10, with_spans=False, method="auto")
        b = ref.search(q, max_results=10, with_spans=False, method="auto")
        assert [(x.doc_id, x.score) for x in a.matches] == \
            [(x.doc_id, x.score) for x in b.matches], q


def test_format_2_index_is_refused_and_compacted(ray_session, tmp_path):
    """Opening or appending to a format-2 index (a count before each
    posting's positions, ``last_doc`` on every block) raises an error
    that names ``compact_index``; ``compact_index`` writes the current
    format — ``last_doc`` null exactly on the single-posting blocks and
    positions that decode with the blocks' tf — and then serves the
    same ``auto`` top-10, spans included, as a fresh build over the same
    rows."""
    import pytest
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               compact_index)
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.state.manifest import (FORMAT_VERSION,
                                              IndexFormatError,
                                              IndexManifest)

    t = _corpus()
    cut = int(t.num_rows * 0.6)
    d = _segmented_index(tmp_path)
    deleted = set(IndexManifest.load(d).tombstone_ids(d).tolist())
    live = {k: v for k, v in _catalog_dl(_segment_dirs(d)).items()
            if k not in deleted}
    _as_format_2(d)
    for f in _committed_files(d)["postings"]:
        assert pq.read_table(f, columns=["last_doc"])["last_doc"] \
            .null_count == 0
    with pytest.raises(IndexFormatError, match="compact_index"):
        BM25Index(d)
    with pytest.raises(IndexFormatError, match="compact_index"):
        append_index(rd.from_arrow(t.slice(cut)), d, url_col="url",
                     lang_col="lang")

    m = compact_index(d)
    assert m.format_version == IndexManifest.load(d).format_version \
        == FORMAT_VERSION == 5
    singles = 0
    for f in _committed_files(d)["postings"]:
        rows = pq.read_table(f).to_pylist()
        for r in rows:
            assert (r["last_doc"] is None) == (r["n"] == 1)
            assert len(_block_positions(r)) == r["n"]
        singles += sum(r["n"] == 1 for r in rows)
    assert singles > 0
    assert _catalog_dl([d]) == live

    keep = pa.array([i in live for i in t["doc_id"].to_pylist()])
    fresh = str(tmp_path / "fresh")
    build_index(rd.from_arrow(t.filter(keep)), fresh, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang")
    got, ref = BM25Index(d), BM25Index(fresh)
    for q in QUERIES:
        a = got.search(q, max_results=10, method="auto")
        b = ref.search(q, max_results=10, method="auto")
        assert [(x.doc_id, x.score, x.spans) for x in a.matches] == \
            [(x.doc_id, x.score, x.spans) for x in b.matches], q


def test_format_3_index_is_refused_and_compacted(ray_session, tmp_path):
    """Opening or appending to a format-3 index (a ``crc`` and a
    ``block_id`` on every posting block, no page CRCs) raises an error
    that names ``compact_index``; ``compact_index`` writes format 5 —
    neither column, the writer policy — and then serves the same
    ``auto`` top-10, spans included, as a fresh build over the same
    rows, through a plain and a checksum-verifying handle."""
    import pytest
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               compact_index)
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.state.manifest import (FORMAT_VERSION,
                                              IndexFormatError,
                                              IndexManifest)

    t = _corpus()
    cut = int(t.num_rows * 0.6)
    d = _segmented_index(tmp_path)
    deleted = set(IndexManifest.load(d).tombstone_ids(d).tolist())
    live = {k: v for k, v in _catalog_dl(_segment_dirs(d)).items()
            if k not in deleted}
    _as_format_3(d)
    for f in _committed_files(d)["postings"]:
        assert {"block_id", "crc"} <= set(pq.read_schema(f).names)
    with pytest.raises(IndexFormatError, match="compact_index"):
        BM25Index(d)
    with pytest.raises(IndexFormatError, match="compact_index"):
        append_index(rd.from_arrow(t.slice(cut)), d, url_col="url",
                     lang_col="lang")

    m = compact_index(d)
    assert m.format_version == IndexManifest.load(d).format_version \
        == FORMAT_VERSION == 5
    for f in _committed_files(d)["postings"]:
        assert not {"block_id", "crc"} & set(pq.read_schema(f).names)
    _assert_policy(d, ("docs", "postings"))
    assert _catalog_dl([d]) == live

    keep = pa.array([i in live for i in t["doc_id"].to_pylist()])
    fresh = str(tmp_path / "fresh")
    build_index(rd.from_arrow(t.filter(keep)), fresh, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang")
    ref = BM25Index(fresh)
    for got in (BM25Index(d), BM25Index(d, verify_checksums=True)):
        for q in QUERIES:
            a = got.search(q, max_results=10, method="auto")
            b = ref.search(q, max_results=10, method="auto")
            assert [(x.doc_id, x.score, x.spans) for x in a.matches] == \
                [(x.doc_id, x.score, x.spans) for x in b.matches], q


def _assert_null_bounds(index_dir: str) -> None:
    """``max_wdl`` is null on exactly the single-posting blocks of every
    postings file, and there are blocks of both kinds."""
    singles = blocks = 0
    for f in _committed_files(index_dir)["postings"]:
        t = pq.read_table(f, columns=["n", "max_wdl"])
        one = t["n"].to_numpy() == 1
        null = t["max_wdl"].is_null().to_numpy(zero_copy_only=False)
        assert np.array_equal(null, one), f
        singles += int(one.sum())
        blocks += t.num_rows
    assert 0 < singles < blocks


def test_format_4_index_is_refused_and_compacted(ray_session, tmp_path):
    """Opening or appending to a format-4 index (a ``bucket`` column, a
    bound on every block, files numbered by their place in the spill)
    raises an error that names ``compact_index``; ``compact_index``
    writes format 5 — each postings file named by its bucket and with
    no ``bucket`` column, ``max_wdl`` null exactly on the single-posting
    blocks, the writer policy — and then serves the same ``auto`` and
    ``maxscore`` top-10, spans included, as a fresh build over the same
    rows, through a plain and a checksum-verifying handle."""
    import pytest
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               compact_index)
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.state.manifest import (FORMAT_VERSION,
                                              IndexFormatError,
                                              IndexManifest)

    t = _corpus()
    cut = int(t.num_rows * 0.6)
    d = _segmented_index(tmp_path)
    deleted = set(IndexManifest.load(d).tombstone_ids(d).tolist())
    live = {k: v for k, v in _catalog_dl(_segment_dirs(d)).items()
            if k not in deleted}
    _as_format_4(d)
    for f in _committed_files(d)["postings"]:
        assert "bucket" in pq.read_schema(f).names
        assert pq.read_table(f, columns=["max_wdl"])["max_wdl"] \
            .null_count == 0
    with pytest.raises(IndexFormatError, match="compact_index"):
        BM25Index(d)
    with pytest.raises(IndexFormatError, match="compact_index"):
        append_index(rd.from_arrow(t.slice(cut)), d, url_col="url",
                     lang_col="lang")

    m = compact_index(d)
    assert m.format_version == IndexManifest.load(d).format_version \
        == FORMAT_VERSION == 5
    _assert_files_named_by_bucket(d)
    _assert_null_bounds(d)
    _assert_policy(d, ("docs", "postings"))
    assert _catalog_dl([d]) == live

    keep = pa.array([i in live for i in t["doc_id"].to_pylist()])
    fresh = str(tmp_path / "fresh")
    build_index(rd.from_arrow(t.filter(keep)), fresh, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang")
    ref = BM25Index(fresh)
    for got in (BM25Index(d), BM25Index(d, verify_checksums=True)):
        for q in QUERIES:
            for method in ("auto", "maxscore"):
                a = got.search(q, max_results=10, method=method)
                b = ref.search(q, max_results=10, method=method)
                assert [(x.doc_id, x.score, x.spans) for x in a.matches] \
                    == [(x.doc_id, x.score, x.spans) for x in b.matches], q


def _taat_topk(idx, q: str, k: int, lo=None, hi=None) -> list:
    """The ``score_terms`` TAAT top ``k`` of ``q`` as (doc_id, score),
    over doc ids in [lo, hi) when given."""
    ids, sc = idx.score_terms(idx.query_terms(q))
    if lo is not None:
        keep = (ids >= lo) & (ids < hi)
        ids, sc = ids[keep], sc[keep]
    top = np.lexsort((ids, -sc))[:k]
    return list(zip(ids[top].tolist(), sc[top].tolist()))


def _assert_bounded_by_one(index_dir: str, pages: list[int]) -> None:
    """Each page number is a df-1 term; paired with head terms in a
    query, forced ``maxscore``, ``auto``, a 2-shard ``ShardedEngine``
    and a maxscore ``topk`` on each of its doc-range handles give the
    TAAT top-k at k = 1 and 10."""
    from pdfsearch_ray.pipelines.engine import ShardedEngine
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(index_dir)
    queries = []
    for p in pages:
        assert idx.postings([str(p)])[str(p)].df == 1, p
        queries += [f"{p} document", f"quick {p} brown",
                    f"fox throughput {p}"]
    eng = ShardedEngine(index_dir, n_shards=2, num_cpus=0.25)
    shards = [(BM25Index(index_dir, doc_range=r), r) for r in eng.ranges]
    assert len(shards) == 2
    try:
        for q in queries:
            for k in (1, 10):
                want = _taat_topk(idx, q, k)
                assert len(want) == k, q
                for method in ("maxscore", "auto"):
                    ms = idx.search(q, max_results=k, with_spans=False,
                                    method=method)
                    assert [(m.doc_id, m.score) for m in ms.matches] \
                        == want, (q, k, method)
                ms = eng.search(q, max_results=k, with_spans=False)
                assert [(m.doc_id, m.score) for m in ms.matches] == want, \
                    (q, k)
                for shard, (lo, hi) in shards:
                    ids, sc, _ = shard.topk(q, k, method="maxscore")
                    assert list(zip(ids.tolist(), sc.tolist())) == \
                        _taat_topk(idx, q, k, lo, hi), (q, k, lo)
    finally:
        eng.shutdown()


def test_single_posting_blocks_store_no_bound(ray_session, tmp_path):
    """``max_wdl`` is null on exactly the single-posting blocks, and a
    reader bounds such a block by 1.0 (the most ``bm25_wdl`` can be):
    MaxScore stays exact for queries that pair a df-1 page number with
    head terms, on a base index and after an append of longer pages
    raises avgdl, so that the base's bounds are scaled by bf > 1."""
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import append_index, build_index
    from pdfsearch_ray.state.manifest import IndexManifest

    t = _corpus()
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(t.slice(0, 300)), d, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang")
    _assert_null_bounds(d)
    _assert_bounded_by_one(d, [7, 123, 250])

    longer = t.slice(300, 100)
    texts = [f"{x}\n{x}\n{x}" for x in longer["text"].to_pylist()]
    longer = longer.set_column(longer.schema.get_field_index("text"),
                               "text", pa.array(texts, pa.string()))
    append_index(rd.from_arrow(longer), d, url_col="url", lang_col="lang")
    m = IndexManifest.load(d)
    assert m.avgdl > m.segments[0]["avgdl_baked"]      # bf > 1 on the base
    _assert_null_bounds(d)
    _assert_bounded_by_one(d, [7, 123, 250, 321, 377])


def test_resumed_build_rebuilds_format_1_stages(ray_session, tmp_path):
    """A resumed ``build_index`` over a format-1 index dir rebuilds its
    catalog and postings instead of keeping them under a current-format
    manifest: afterwards every doc has its ``dl`` and the index serves
    the same answers as before."""
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.state.manifest import FORMAT_VERSION, IndexManifest

    t = _corpus()
    d = str(tmp_path / "idx")

    def build(resume: bool) -> None:
        build_index(rd.from_arrow(t), d, num_buckets=4, analyzer="en",
                    url_col="url", lang_col="lang", resume=resume)

    def answers() -> list:
        idx = BM25Index(d)
        return [[(x.doc_id, x.score) for x in idx.search(
            q, max_results=10, with_spans=False, method="auto").matches]
            for q in QUERIES]

    build(False)
    ref = answers()
    _as_format_1(d)
    build(True)
    assert IndexManifest.load(d).format_version == FORMAT_VERSION
    assert _catalog_dl([d]) == _analyzed_dl(t)
    for f in _committed_files(d)["postings"]:
        assert "dl_blob" not in pq.read_schema(f).names
    assert answers() == ref
