"""Incremental append (forceCreate=false analog, bleve_glue.go:16-29).

The hard invariant: building part A then appending part B must produce
the SAME search results — doc ids, scores, tie order — as one
from-scratch build over A∪B.  Postings store raw tf/dl, avgdl enters
only at decode, and append adds each segment's exact (N, total_dl),
read from its docs catalog, so scores agree bitwise, not just
approximately."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001/documents.parquet"

QUERIES = [
    "data processing pipeline",
    "the data stream",
    "information system window",
    "merge",
    "zzz_nohit",
]


@pytest.fixture(scope="module")
def pair(ray_session, tmp_path_factory):
    """(full_dir, appended_dir): one-shot build vs build+append."""
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import append_index, build_index

    t = pq.read_table(SF)
    cut = int(t.num_rows * 0.6)
    part_a, part_b = t.slice(0, cut), t.slice(cut)

    full_dir = str(tmp_path_factory.mktemp("full"))
    build_index(rd.from_arrow(t), full_dir, num_buckets=8,
                analyzer="en", lang_col="lang")

    inc_dir = str(tmp_path_factory.mktemp("inc"))
    build_index(rd.from_arrow(part_a), inc_dir, num_buckets=8,
                analyzer="en", lang_col="lang")
    summary = append_index(rd.from_arrow(part_b), inc_dir,
                           lang_col="lang", audit_unique=True)
    assert summary["segment"] == "seg-001"
    assert summary["n_added"] > 0
    return full_dir, inc_dir


def test_append_matches_full_rebuild_bitwise(pair):
    from pdfsearch_ray.pipelines.query import BM25Index

    full = BM25Index(pair[0])
    inc = BM25Index(pair[1])
    assert inc.manifest.n_docs == full.manifest.n_docs
    assert inc.manifest.avgdl == full.manifest.avgdl
    for q in QUERIES:
        a = full.search(q, max_results=10, with_spans=False)
        b = inc.search(q, max_results=10, with_spans=False)
        assert [(m.doc_id, m.score) for m in a.matches] == [
            (m.doc_id, m.score) for m in b.matches], q
        assert a.total_matches == b.total_matches, q


def test_append_maxscore_rank_identical(pair):
    """Block-max pruning stays sound across segments: the base segment's
    bounds were encoded under the pre-append avgdl and are scaled by
    avgdl_now/avgdl_baked at read time."""
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(pair[1])
    assert len(idx.manifest.segments) == 2
    base = next(s for s in idx.manifest.segments if s["name"] == "base")
    assert base["avgdl_baked"] != idx.manifest.avgdl  # correction active
    for q in QUERIES:
        a = idx.search(q, max_results=5, with_spans=False, method="taat")
        b = idx.search(q, max_results=5, with_spans=False,
                       method="maxscore")
        assert [(m.doc_id, m.score) for m in a.matches] == [
            (m.doc_id, m.score) for m in b.matches], q


def test_append_spans_hydrate_from_segment_docs(pair):
    """Hit hydration (url/text/spans) must reach docs stored in the
    appended segment's catalog, not just the base dir."""
    from pdfsearch_ray.pipelines.query import BM25Index

    inc = BM25Index(pair[1])
    seg = next(s for s in inc.manifest.segments if s["name"] != "base")
    # any query hitting a high doc_id doc exercises the segment catalog
    ms = inc.search("data processing pipeline", max_results=10,
                    with_spans=True)
    assert ms.matches
    for m in ms.matches:
        assert m.url is not None
        assert m.spans is not None
    assert seg["n_docs"] > 0


def test_append_skips_already_indexed(ray_session, pair, tmp_path):
    """Re-appending the same corpus is a no-op (addFile hash-reuse
    semantics, bleve_pdf.go:300-341)."""
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import append_index
    from pdfsearch_ray.state.manifest import IndexManifest

    inc_dir = pair[1]
    before = IndexManifest.load(inc_dir)
    summary = append_index(rd.from_arrow(pq.read_table(SF)), inc_dir,
                           lang_col="lang")
    assert summary["segment"] is None
    assert summary["n_added"] == 0
    after = IndexManifest.load(inc_dir)
    assert after.n_docs == before.n_docs
    assert after.segments == before.segments


def test_uncommitted_segment_is_invisible(ray_session, pair, tmp_path):
    """A crashed append leaves a segment dir the manifest doesn't list;
    queries must not read it (the manifest save is the commit point)."""
    import shutil

    from pdfsearch_ray.pipelines.query import BM25Index

    inc_dir = pair[1]
    ghost = f"{inc_dir}/segments/seg-999"
    shutil.copytree(f"{inc_dir}/segments/seg-001", ghost)
    try:
        idx = BM25Index(inc_dir)
        listed = {s["name"] for s in idx.manifest.segments}
        assert "seg-999" not in listed
        assert not any("seg-999" in p for p in idx._post_file_seg)
        full = BM25Index(pair[0])
        for q in QUERIES:
            a = full.search(q, max_results=10, with_spans=False)
            b = idx.search(q, max_results=10, with_spans=False)
            assert [(m.doc_id, m.score) for m in a.matches] == [
                (m.doc_id, m.score) for m in b.matches], q
    finally:
        shutil.rmtree(ghost, ignore_errors=True)


def test_append_salted_parent(ray_session, tmp_path):
    """Appending to a salted index reuses the parent's salt_spec so
    bucket placement stays consistent; scores still match a fresh build
    with the same spec."""
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import append_index, build_index
    from pdfsearch_ray.pipelines.query import BM25Index

    t = pq.read_table(SF)
    cut = int(t.num_rows * 0.5)
    hot = {"the": 4, "data": 4}

    full_dir = str(tmp_path / "full")
    build_index(rd.from_arrow(t), full_dir, num_buckets=8,
                analyzer="simple", hot_terms=hot)
    inc_dir = str(tmp_path / "inc")
    build_index(rd.from_arrow(t.slice(0, cut)), inc_dir, num_buckets=8,
                analyzer="simple", hot_terms=hot)
    append_index(rd.from_arrow(t.slice(cut)), inc_dir)

    full = BM25Index(full_dir)
    inc = BM25Index(inc_dir)
    assert inc.manifest.salt_spec == full.manifest.salt_spec
    for q in ("the data stream", "data data data"):
        for method in ("taat", "maxscore"):
            a = full.search(q, max_results=8, with_spans=False,
                            method=method)
            b = inc.search(q, max_results=8, with_spans=False,
                           method=method)
            assert [(m.doc_id, m.score) for m in a.matches] == [
                (m.doc_id, m.score) for m in b.matches], (q, method)


def test_append_respects_source_hash_column(ray_session, tmp_path):
    """Regression: a PATH source whose parquet carries a ``hash`` column
    (the extract checkpoint shape) must keep that column through
    append's projection — the known-content skip compares catalog
    hashes, which are passthroughs of the same column.  Dropping it
    recomputed sha256(text) and never matched, silently duplicating
    every doc."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines.build import append_index, build_index
    from pdfsearch_ray.state.manifest import IndexManifest

    src = str(tmp_path / "src.parquet")
    t = pq.read_table(SF).select(["doc_id", "text", "lang"])
    custom_hash = pa.array([f"h{int(i):06d}" for i in t["doc_id"].to_pylist()],
                           type=pa.string())
    pq.write_table(t.append_column("hash", custom_hash), src)

    d = str(tmp_path / "idx")
    build_index(src, d, num_buckets=8, analyzer="en", lang_col="lang")
    # catalog carries the custom hash (passthrough, not sha256(text))
    cat = pq.read_table(f"{d}/docs", columns=["hash"])["hash"].to_pylist()
    assert cat[0].startswith("h")
    # re-appending the same path source is a no-op
    res = append_index(src, d, lang_col="lang")
    assert res["segment"] is None and res["n_added"] == 0
    assert IndexManifest.load(d).segments == []


def test_mapped_source_records_its_catalog_hash_scheme(ray_session,
                                                       tmp_path):
    """A build from a ``map_batches``-derived dataset, whose schema Ray
    cannot know without running the plan, records the hash scheme the
    catalog stage actually used: ``"source"`` when the mapped rows carry
    a ``hash`` column (passed through to the catalog), ``"text"`` when
    they do not (sha256(text) computed)."""
    import pyarrow as pa
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.state.manifest import IndexManifest

    t = pq.read_table(SF).select(["doc_id", "text"]).slice(0, 120)

    def with_hash(b: pa.Table) -> pa.Table:
        return b.append_column("hash", pa.array(
            [f"h{int(i):06d}" for i in b["doc_id"].to_pylist()],
            type=pa.string()))

    def text_only(b: pa.Table) -> pa.Table:
        return b.select(["doc_id", "text"])

    for fn, want in ((with_hash, "source"), (text_only, "text")):
        ds = rd.from_arrow(t).map_batches(fn, batch_format="pyarrow")
        assert ds.schema(fetch_if_missing=False) is None
        d = str(tmp_path / want)
        build_index(ds, d, num_buckets=4, analyzer="en")
        m = IndexManifest.load(d)
        assert m.build_metrics["hash_provenance"] == want
        cat = pq.read_table(f"{d}/docs", columns=["hash"])["hash"]
        assert cat[0].as_py().startswith("h") == (want == "source")


def test_two_appends_match_full_rebuild(ray_session, tmp_path):
    """Three segments (base + seg-001 + seg-002), each encoded under a
    different global avgdl, must still reproduce the from-scratch build
    bitwise — two distinct block-max bound corrections active at once."""
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import append_index, build_index
    from pdfsearch_ray.pipelines.query import BM25Index

    t = pq.read_table(SF)
    c1, c2 = int(t.num_rows * 0.4), int(t.num_rows * 0.7)

    full_dir = str(tmp_path / "full")
    build_index(rd.from_arrow(t), full_dir, num_buckets=8,
                analyzer="en", lang_col="lang")
    inc_dir = str(tmp_path / "inc")
    build_index(rd.from_arrow(t.slice(0, c1)), inc_dir, num_buckets=8,
                analyzer="en", lang_col="lang")
    s1 = append_index(rd.from_arrow(t.slice(c1, c2 - c1)), inc_dir,
                      lang_col="lang")
    s2 = append_index(rd.from_arrow(t.slice(c2)), inc_dir, lang_col="lang")
    assert (s1["segment"], s2["segment"]) == ("seg-001", "seg-002")

    full = BM25Index(full_dir)
    inc = BM25Index(inc_dir)
    assert len(inc.manifest.segments) == 3
    bakes = {s["name"]: s["avgdl_baked"] for s in inc.manifest.segments}
    assert len(set(bakes.values())) == 3  # three distinct corrections
    assert inc.manifest.avgdl == full.manifest.avgdl
    for q in QUERIES:
        for method in ("taat", "maxscore"):
            a = full.search(q, max_results=10, with_spans=False,
                            method=method)
            b = inc.search(q, max_results=10, with_spans=False,
                           method=method)
            assert [(m.doc_id, m.score) for m in a.matches] == [
                (m.doc_id, m.score) for m in b.matches], (q, method)


def _catalog_dl(index_dir):
    """Every committed catalog's ``dl`` column, concatenated."""
    from pdfsearch_ray.pipelines.build import _committed_doc_files
    from pdfsearch_ray.state.manifest import IndexManifest

    files = _committed_doc_files(index_dir, IndexManifest.load(index_dir))
    return np.concatenate([pq.read_table(f, columns=["dl"])["dl"].to_numpy()
                           for f in files]).astype(np.int64)


def test_sampled_base_append_keeps_exact_stats(ray_session, tmp_path):
    """A base built with ``sample_rate < 1`` records the catalog's exact
    stats, so after an append the manifest's N, total_dl and avgdl are
    the sums over every committed catalog, and TAAT and MaxScore answer
    exactly as a from-scratch build of the union."""
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import append_index, build_index
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.state.manifest import IndexManifest

    t = pq.read_table(SF)
    cut = int(t.num_rows * 0.6)
    full_dir = str(tmp_path / "full")
    build_index(rd.from_arrow(t), full_dir, num_buckets=8, analyzer="en",
                lang_col="lang")
    inc_dir = str(tmp_path / "inc")
    build_index(rd.from_arrow(t.slice(0, cut)), inc_dir, num_buckets=8,
                analyzer="en", lang_col="lang", sample_rate=0.1)
    assert append_index(rd.from_arrow(t.slice(cut)), inc_dir,
                        lang_col="lang")["segment"] == "seg-001"

    m = IndexManifest.load(inc_dir)
    dl = _catalog_dl(inc_dir)
    assert m.n_docs == np.count_nonzero(dl)
    assert m.total_dl == int(dl.sum())
    assert m.avgdl == m.total_dl / m.n_docs
    full, inc = BM25Index(full_dir), BM25Index(inc_dir)
    assert (inc.manifest.n_docs, inc.manifest.avgdl) == (
        full.manifest.n_docs, full.manifest.avgdl)
    for q in QUERIES:
        for method in ("taat", "maxscore"):
            a = full.search(q, max_results=10, with_spans=False,
                            method=method)
            b = inc.search(q, max_results=10, with_spans=False,
                           method=method)
            assert [(h.doc_id, h.score) for h in a.matches] == [
                (h.doc_id, h.score) for h in b.matches], (q, method)
            assert a.total_matches == b.total_matches, (q, method)


def test_crashed_append_resumes_only_for_its_own_delta(ray_session,
                                                       tmp_path):
    """A segment dir left by a crashed append (built, never committed)
    is resumed by a re-run of the same delta — its files are kept — and
    rebuilt by an append of a different delta."""
    import os

    import ray.data as rd

    from pdfsearch_ray.pipelines.build import append_index, build_index
    from pdfsearch_ray.state.manifest import IndexManifest

    t = pq.read_table(SF)
    delta_a, delta_b = t.slice(200, 100), t.slice(300, 100)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(t.slice(0, 200)), d, num_buckets=8,
                analyzer="en", lang_col="lang")
    with open(f"{d}/manifest.json", "rb") as f:
        committed = f.read()
    seg = f"{d}/segments/seg-001"

    def crash() -> None:
        # the segment stays on disk; the parent never lists it
        with open(f"{d}/manifest.json", "wb") as f:
            f.write(committed)

    def files() -> dict:
        out = {}
        for sub in ("docs", "postings"):
            for name in os.listdir(f"{seg}/{sub}"):
                st = os.stat(f"{seg}/{sub}/{name}")
                out[f"{sub}/{name}"] = (st.st_ino, st.st_mtime_ns)
        return out

    def seg_ids() -> set:
        return set(pq.read_table(f"{seg}/docs", columns=["doc_id"])
                   ["doc_id"].to_pylist())

    append_index(rd.from_arrow(delta_a), d, lang_col="lang")
    crash()
    left = files()
    out = append_index(rd.from_arrow(delta_a), d, lang_col="lang")
    assert out["segment"] == "seg-001" and out["n_added"] > 0
    assert files() == left  # resumed: every stage file kept
    crash()
    out = append_index(rd.from_arrow(delta_b), d, lang_col="lang")
    assert out["segment"] == "seg-001" and out["n_added"] > 0
    assert seg_ids() <= set(delta_b["doc_id"].to_pylist())
    assert not seg_ids() & set(delta_a["doc_id"].to_pylist())
    m = IndexManifest.load(d)
    dl = _catalog_dl(d)
    assert (m.n_docs, m.total_dl) == (np.count_nonzero(dl), int(dl.sum()))


def test_build_metrics_after_build_append_and_compact(ray_session,
                                                      tmp_path):
    """The per-stage walls the benchmark reads (``sec_tokenize``,
    ``sec_encode``) and the encode tasks' summed postings write
    (``sec_postings_write``) are recorded by a build, an append's
    segment build and a compaction; no build records a stats pass, and
    ``sec_hot`` is 0 when the hot terms come from the extract markers or
    the caller."""
    import pyarrow as pa
    import ray.data as rd

    from pdfsearch_ray.fixtures.gen import generate_pages, write_pages
    from pdfsearch_ray.pipelines.build import (append_index, build_from_pages,
                                               compact_index)

    pages = str(tmp_path / "pages")
    write_pages(pages, 300, rows_per_file=100)
    d = str(tmp_path / "idx")
    m = build_from_pages(pages, d, num_buckets=4, resume=False,
                         sample_rate=0.5, auto_salt=True)
    assert m.salt_spec  # hot terms came from the markers
    t = generate_pages(400).slice(300)
    delta = pa.table({
        "doc_id": pa.array(10**15 + np.arange(t.num_rows, dtype=np.int64)),
        "url": t["url"], "text": t["text"], "lang": t["lang"]})
    seg = append_index(rd.from_arrow(delta), d, lang_col="lang",
                       url_col="url")["segment_metrics"]
    compacted = compact_index(d).build_metrics
    for bm in (m.build_metrics, seg, compacted):
        assert bm["sec_tokenize"] > 0 and bm["sec_encode"] > 0
        assert bm["sec_postings_write"] > 0
        assert "sec_stats" not in bm
        assert bm["sec_hot"] == 0
