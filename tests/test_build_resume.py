"""Stage-level resume of build_index: atomic stage dirs (tmp+rename),
skip-completed-on-rerun, config-fingerprint invalidation.

Reference analog: the reopenable index + rollback-on-partial-write
(bleve_pdf.go:236-260,342-351) — here a killed build restarts from the
last completed stage and produces an identical index.
"""

import os
import shutil

SRC = "/root/testdata/sf0.001/documents.parquet"


def _query_sig(index_dir):
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(index_dir)
    out = []
    for q in ("data processing pipeline", "stream window"):
        ms = idx.search(q, max_results=10)
        out.append([(m.doc_id, round(m.score, 10)) for m in ms.matches])
    return out


def test_resume_skips_completed_stages(ray_session, tmp_path):
    from pdfsearch_ray.pipelines.build import build_index

    d = str(tmp_path / "idx")
    build_index(SRC, d, analyzer="en", num_buckets=8)
    sig = _query_sig(d)
    docs_mtime = os.path.getmtime(f"{d}/docs")

    # crash between encode and manifest: postings gone, docs intact
    shutil.rmtree(f"{d}/postings")
    m2 = build_index(SRC, d, analyzer="en", num_buckets=8, resume=True)
    assert os.path.getmtime(f"{d}/docs") == docs_mtime, "docs stage re-ran"
    assert _query_sig(d) == sig
    assert m2.n_docs == 500

    # full rerun with everything present: all stages skipped, index identical
    post_mtime = os.path.getmtime(f"{d}/postings")
    build_index(SRC, d, analyzer="en", num_buckets=8, resume=True)
    assert os.path.getmtime(f"{d}/postings") == post_mtime
    assert _query_sig(d) == sig


def test_resume_config_change_rebuilds(ray_session, tmp_path):
    from pdfsearch_ray.pipelines.build import build_index

    d = str(tmp_path / "idx")
    build_index(SRC, d, analyzer="en", num_buckets=8)
    docs_mtime = os.path.getmtime(f"{d}/docs")
    # different shuffle width → fingerprint mismatch → full rebuild
    build_index(SRC, d, analyzer="en", num_buckets=16, resume=True)
    assert os.path.getmtime(f"{d}/docs") != docs_mtime
    from pdfsearch_ray.state.manifest import IndexManifest

    assert IndexManifest.load(d).num_buckets == 16


def test_resume_keys_on_the_hot_terms_digest(ray_session, tmp_path):
    """The build config keeps a digest of the hot terms, not the list:
    the same spec resumes, a different spec rebuilds, and so does a
    config that lists the terms (the older form)."""
    import json

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.state.manifest import IndexManifest

    d = str(tmp_path / "idx")
    spec = {"data": 2, "the": 4}
    build_index(SRC, d, analyzer="en", num_buckets=8, hot_terms=spec)
    cfg_path = f"{d}/.build_config.json"
    with open(cfg_path) as f:
        cfg = json.load(f)
    assert "hot_terms" not in cfg and len(cfg["hot_terms_sha256"]) == 64
    docs_mtime = os.path.getmtime(f"{d}/docs")

    shutil.rmtree(f"{d}/postings")
    build_index(SRC, d, analyzer="en", num_buckets=8, hot_terms=dict(spec),
                resume=True)
    assert os.path.getmtime(f"{d}/docs") == docs_mtime, "docs stage re-ran"

    build_index(SRC, d, analyzer="en", num_buckets=8,
                hot_terms={"data": 3}, resume=True)
    assert os.path.getmtime(f"{d}/docs") != docs_mtime
    assert IndexManifest.load(d).salt_spec == {"data": 3}

    docs_mtime = os.path.getmtime(f"{d}/docs")
    with open(cfg_path) as f:
        cfg = json.load(f)
    del cfg["hot_terms_sha256"]
    cfg["hot_terms"] = [["data", 3]]
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    build_index(SRC, d, analyzer="en", num_buckets=8,
                hot_terms={"data": 3}, resume=True)
    assert os.path.getmtime(f"{d}/docs") != docs_mtime


def test_partial_stage_tmp_is_invisible(ray_session, tmp_path):
    """A leftover .tmp stage dir from a crash must be ignored and cleaned."""
    from pdfsearch_ray.pipelines.build import build_index

    d = str(tmp_path / "idx")
    build_index(SRC, d, analyzer="en", num_buckets=8)
    sig = _query_sig(d)
    shutil.rmtree(f"{d}/postings")
    os.makedirs(f"{d}/postings.tmp/garbage")
    build_index(SRC, d, analyzer="en", num_buckets=8, resume=True)
    assert not os.path.exists(f"{d}/postings.tmp")
    assert _query_sig(d) == sig
