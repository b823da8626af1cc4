"""Incremental append (forceCreate=false analog, bleve_glue.go:16-29).

The hard invariant: building part A then appending part B must produce
the SAME search results — doc ids, scores, tie order — as one
from-scratch build over A∪B.  Postings store raw tf/dl, avgdl enters
only at decode, and append recomputes the global (N, total_dl) exactly,
so scores agree bitwise, not just approximately."""

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
