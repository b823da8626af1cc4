"""Kill-resume invariant (SURVEY §5): a build killed mid-flight and
resumed must produce a byte-identical index to an uninterrupted build.

The victim build runs in a subprocess with its own Ray session and is
SIGKILLed once some (not all) extract partition markers exist; the rerun
uses the same index dir with resume=True."""

import glob
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pyarrow.parquet as pq
import pytest


def _postings_canon(index_dir):
    t = pq.read_table(f"{index_dir}/postings")
    return t.sort_by([("bucket", "ascending"), ("term", "ascending"),
                      ("salt", "ascending"), ("first_doc", "ascending")])


# the child imports this checkout's package, wherever it lives
_CHILD = r"""
import sys
sys.path.insert(0, %r)
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from pdfsearch_ray.pipelines.build import build_from_pages
build_from_pages(sys.argv[1], sys.argv[2], resume=True, num_buckets=8)
""" % str(Path(__file__).resolve().parents[1])


@pytest.mark.parametrize("dummy", [0])
def test_kill_mid_build_then_resume_identical(ray_session, tmp_path, dummy):
    from pdfsearch_ray.fixtures.gen import write_pages
    from pdfsearch_ray.pipelines.build import build_from_pages
    from pdfsearch_ray.pipelines.query import BM25Index

    corpus = str(tmp_path / "pages")
    # many small partitions so the kill lands mid-extract
    write_pages(corpus, 2000, rows_per_file=200, row_group_size=50)

    clean_dir = str(tmp_path / "clean")
    build_from_pages(corpus, clean_dir, resume=False, num_buckets=8)

    victim_dir = str(tmp_path / "victim")
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, corpus, victim_dir],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    marker_glob = f"{victim_dir}/extracted/_partitions/*.json"
    deadline = time.time() + 120
    killed = False
    while time.time() < deadline:
        n = len(glob.glob(marker_glob))
        if 1 <= n:
            os.kill(proc.pid, signal.SIGKILL)
            killed = True
            break
        if proc.poll() is not None:
            break  # finished before we could kill — resume is then a no-op
        time.sleep(0.05)
    proc.wait(timeout=60)
    # clean up the dead child's Ray session dirs are isolated; now resume
    if killed:
        done_before = len(glob.glob(marker_glob))
        total = len(glob.glob(f"{corpus}/*.parquet")) * 4  # 200/50 rgs per file
        assert done_before < total, "kill landed after extract completed"

    build_from_pages(corpus, victim_dir, resume=True, num_buckets=8)

    assert _postings_canon(victim_dir).equals(_postings_canon(clean_dir))
    a = BM25Index(clean_dir).search("quick brown fox", max_results=10)
    b = BM25Index(victim_dir).search("quick brown fox", max_results=10)
    assert [(m.doc_id, m.score) for m in a.matches] == \
           [(m.doc_id, m.score) for m in b.matches]
