"""Kill-resume invariant (SURVEY §5): a build killed mid-flight and
resumed must produce a byte-identical index to an uninterrupted build.

The victim build runs in a subprocess with its own Ray session.  In the
first case it is SIGKILLed once some (not all) extract partition markers
exist, which a fast child can outrun; in the second it kills itself at a
fixed point, after the token spill commits and before the postings do,
so the kill always lands.  The rerun uses the same index dir with
resume=True."""

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
    """The postings file names (each names its bucket) and every block in
    (term, salt, first_doc) order."""
    t = pq.read_table(f"{index_dir}/postings")
    return sorted(os.listdir(f"{index_dir}/postings")), t.sort_by(
        [("term", "ascending"), ("salt", "ascending"),
         ("first_doc", "ascending")])


def _assert_same_index(victim_dir, clean_dir):
    from pdfsearch_ray.pipelines.query import BM25Index

    names, blocks = _postings_canon(victim_dir)
    clean_names, clean_blocks = _postings_canon(clean_dir)
    assert names == clean_names
    assert blocks.equals(clean_blocks)
    a = BM25Index(clean_dir).search("quick brown fox", max_results=10)
    b = BM25Index(victim_dir).search("quick brown fox", max_results=10)
    assert [(m.doc_id, m.score) for m in a.matches] == \
           [(m.doc_id, m.score) for m in b.matches]


# the child imports this checkout's package, wherever it lives
_REPO = str(Path(__file__).resolve().parents[1])
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
""" % _REPO

# the same build, which kills itself where the build reads the committed
# catalog's doc lengths: the docs catalog and the token spill are
# committed there, and the postings are not
_SELF_KILL_CHILD = r"""
import os
import signal
import sys
sys.path.insert(0, %r)
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from pdfsearch_ray.index import build_blocks


def _die(docs_dir):
    index_dir = os.path.dirname(docs_dir)
    if not os.path.isdir(index_dir + "/_tokens"):
        sys.exit("no committed token spill")
    if os.path.isdir(index_dir + "/postings"):
        sys.exit("postings already committed")
    os.kill(os.getpid(), signal.SIGKILL)


build_blocks.catalog_doc_lengths = _die
from pdfsearch_ray.pipelines.build import build_from_pages
build_from_pages(sys.argv[1], sys.argv[2], resume=True, num_buckets=8)
sys.exit("the build finished without reading the catalog's doc lengths")
""" % _REPO


@pytest.mark.parametrize("dummy", [0])
def test_kill_mid_build_then_resume_identical(ray_session, tmp_path, dummy):
    from pdfsearch_ray.fixtures.gen import write_pages
    from pdfsearch_ray.pipelines.build import build_from_pages

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
    _assert_same_index(victim_dir, clean_dir)


def _files(directory):
    """{name: bytes} of every file in ``directory``."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = f.read()
    return out


def test_kill_between_spill_and_postings_then_resume(ray_session, tmp_path):
    """A build SIGKILLed after its token spill commits and before its
    postings do resumes from the committed catalog and spill (the
    catalog files are kept as they are) and ends with the postings and
    answers of an uninterrupted build."""
    from pdfsearch_ray.fixtures.gen import write_pages
    from pdfsearch_ray.pipelines.build import build_from_pages

    corpus = str(tmp_path / "pages")
    write_pages(corpus, 600, rows_per_file=200, row_group_size=50)
    clean_dir = str(tmp_path / "clean")
    build_from_pages(corpus, clean_dir, resume=False, num_buckets=8)

    victim_dir = str(tmp_path / "victim")
    proc = subprocess.run(
        [sys.executable, "-c", _SELF_KILL_CHILD, corpus, victim_dir],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=300)
    assert proc.returncode == -signal.SIGKILL, proc.stderr[-2000:]
    assert os.path.isdir(f"{victim_dir}/_tokens")
    assert not os.path.exists(f"{victim_dir}/postings")
    assert not os.path.exists(f"{victim_dir}/manifest.json")
    catalog = _files(f"{victim_dir}/docs")
    assert catalog

    build_from_pages(corpus, victim_dir, resume=True, num_buckets=8)
    assert _files(f"{victim_dir}/docs") == catalog
    assert not os.path.exists(f"{victim_dir}/_tokens")
    _assert_same_index(victim_dir, clean_dir)
