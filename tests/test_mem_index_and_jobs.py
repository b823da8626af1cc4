"""In-memory index (S5) must answer identically to the disk index; job
CLIs (build/search) drive the same pipeline end-to-end."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

# the job CLIs run as ``python -m`` from this checkout's root
REPO = str(Path(__file__).resolve().parents[1])


def test_mem_index_matches_disk(ray_session, tmp_path):
    from pdfsearch_ray.pipelines.build import build_index, build_index_mem
    from pdfsearch_ray.pipelines.query import BM25Index

    src = "/root/testdata/sf0.001/documents.parquet"
    d = str(tmp_path / "disk")
    build_index(src, d, analyzer="en", num_buckets=16)
    disk = BM25Index(d)
    mem = build_index_mem(src, analyzer="en", num_buckets=16)
    assert mem.doc_count() == disk.doc_count()
    assert abs(mem.manifest.avgdl - disk.manifest.avgdl) < 1e-9
    for q in ("data processing pipeline", "stream window", "zzznothing"):
        a = disk.search(q, 10)
        b = mem.search(q, 10)
        assert [m.doc_id for m in a.matches] == [m.doc_id for m in b.matches]
        np.testing.assert_allclose(
            [m.score for m in a.matches], [m.score for m in b.matches], rtol=1e-12
        )
        assert [m.spans for m in a.matches] == [m.spans for m in b.matches]
        assert a.total_matches == b.total_matches


@pytest.mark.parametrize("dummy", [0])
def test_job_clis_end_to_end(tmp_path, dummy):
    """build_job + search_job in a fresh process (own Ray session)."""
    from pdfsearch_ray.fixtures.gen import write_pages

    corpus = str(tmp_path / "pages")
    write_pages(corpus, 300, rows_per_file=150, row_group_size=75)
    index_dir = str(tmp_path / "idx")
    out = subprocess.run(
        [sys.executable, "-m", "pdfsearch_ray.jobs.build_job",
         "--input", corpus, "--index-dir", index_dir,
         "--num-cpus", "4", "--sample-rate", "1.0"],
        capture_output=True, text=True, timeout=300, cwd=REPO,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["n_docs"] > 0
    assert "[build]" in out.stderr  # report hook wired to stderr

    res = subprocess.run(
        [sys.executable, "-m", "pdfsearch_ray.jobs.search_job",
         "--index-dir", index_dir, "--best", "quick", "brown", "fox"],
        capture_output=True, text=True, timeout=120, cwd=REPO,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert "total matches" in res.stdout
    assert "doc=" in res.stdout


@pytest.mark.parametrize("dummy", [0])
def test_demo_job_end_to_end(tmp_path, dummy):
    """Combined build→search demo (entry point 3, pdf_search_demo.go):
    fresh build then --reuse, both in fresh processes."""
    from pdfsearch_ray.fixtures.gen import write_pages

    corpus = str(tmp_path / "pages")
    write_pages(corpus, 300, rows_per_file=150, row_group_size=75)
    index_dir = str(tmp_path / "idx")
    out = subprocess.run(
        [sys.executable, "-m", "pdfsearch_ray.jobs.demo_job",
         "--input", corpus, "--index-dir", index_dir,
         "--num-cpus", "4", "quick", "brown", "fox"],
        capture_output=True, text=True, timeout=300, cwd=REPO,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert "dtIndex=" in out.stdout and "docs/sec" in out.stdout
    first = [ln for ln in out.stdout.splitlines() if ln.strip().startswith("1:")]

    reuse = subprocess.run(
        [sys.executable, "-m", "pdfsearch_ray.jobs.demo_job",
         "--input", corpus, "--index-dir", index_dir, "--reuse",
         "--num-cpus", "4", "quick", "brown", "fox"],
        capture_output=True, text=True, timeout=120, cwd=REPO,
    )
    assert reuse.returncode == 0, reuse.stderr[-2000:]
    reuse_first = [ln for ln in reuse.stdout.splitlines()
                   if ln.strip().startswith("1:")]
    assert first == reuse_first  # reuse answers identically, no rebuild
