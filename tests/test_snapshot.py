"""Snapshot/restore repository (pipelines/snapshot.py): round-trip
search equality, file-level incremental blob sharing across an
appended segment, corruption detection, and descriptor atomicity."""

import os

import pyarrow.parquet as pq
import pytest

SRC = "/root/testdata/sf0.001/documents.parquet"
Q = "data processing pipeline"


@pytest.fixture(scope="module", autouse=True)
def _need_testdata():
    if not os.path.isfile(SRC):
        pytest.skip("testdata not available")


def _ranked(idx, q=Q, k=5):
    r = idx.search(q, max_results=k)
    return [(m.doc_id, round(m.score, 6)) for m in r.matches], \
        r.total_matches


def test_snapshot_roundtrip_and_incremental(ray_session, tmp_path):
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index, tail_append
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.pipelines.snapshot import (
        list_snapshots,
        restore_index,
        snapshot_index,
        verify_snapshot,
    )

    t = pq.read_table(SRC)
    cut = int(t.num_rows * 0.8)
    idx_dir = str(tmp_path / "idx")
    repo = str(tmp_path / "repo")
    build_index(rd.from_arrow(t.slice(0, cut)), idx_dir, analyzer="en",
                num_buckets=8, lang_col="lang")
    before = _ranked(BM25Index(idx_dir))

    s1 = snapshot_index(idx_dir, repo, name="s1")
    assert s1["n_files"] == s1["n_new_blobs"] > 0

    # restore → identical ranking (scores included)
    rest1 = str(tmp_path / "rest1")
    restore_index(repo, "s1", rest1)
    assert _ranked(BM25Index(rest1)) == before

    # append a segment; committed base files are immutable, so the
    # second snapshot re-uploads ONLY the new segment + root metadata
    watch = str(tmp_path / "deltas")
    os.makedirs(watch)
    tmp = f"{watch}/.d.tmp"
    pq.write_table(t.slice(cut), tmp)
    os.replace(tmp, f"{watch}/delta-001.parquet")
    out = tail_append(idx_dir, watch, poll_sec=0.1, max_batches=1,
                      lang_col="lang")
    assert out["commits"] == 1

    s2 = snapshot_index(idx_dir, repo, name="s2")
    assert s2["n_files"] > s1["n_files"]
    shared = s2["n_files"] - s2["n_new_blobs"]
    # every base postings/docs file dedupes to an existing blob
    assert shared >= s1["n_files"] - 3  # root jsons may be rewritten
    assert s2["new_bytes"] < s2["total_bytes"]

    after = _ranked(BM25Index(idx_dir))
    rest2 = str(tmp_path / "rest2")
    restore_index(repo, "s2", rest2)
    assert _ranked(BM25Index(rest2)) == after
    # the first snapshot still restores the PRE-append view
    rest1b = str(tmp_path / "rest1b")
    restore_index(repo, "s1", rest1b)
    assert _ranked(BM25Index(rest1b)) == before

    names = [s["name"] for s in list_snapshots(repo)]
    assert names == ["s1", "s2"]
    assert verify_snapshot(repo, "s1")["n_bad"] == 0
    assert verify_snapshot(repo, "s2")["n_bad"] == 0


def test_snapshot_corruption_detected(ray_session, tmp_path):
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.snapshot import (
        SnapshotError,
        restore_index,
        snapshot_index,
        verify_snapshot,
    )

    t = pq.read_table(SRC).slice(0, 100)
    idx_dir = str(tmp_path / "idx")
    repo = str(tmp_path / "repo")
    build_index(rd.from_arrow(t), idx_dir, analyzer="simple",
                num_buckets=4, lang_col="lang")
    snapshot_index(idx_dir, repo, name="s1")

    # flip bytes in the largest blob → verify flags it, restore refuses
    blobs = sorted(
        (os.path.getsize(f"{repo}/blobs/{b}"), b)
        for b in os.listdir(f"{repo}/blobs"))
    victim = f"{repo}/blobs/{blobs[-1][1]}"
    with open(victim, "r+b") as f:
        f.seek(10)
        f.write(b"\xde\xad\xbe\xef")
    assert verify_snapshot(repo, "s1")["n_bad"] >= 1
    with pytest.raises(SnapshotError, match="corrupt"):
        restore_index(repo, "s1", str(tmp_path / "rest"))
    # the failed restore leaves no partial tree behind
    assert not os.path.exists(str(tmp_path / "rest"))

    # duplicate names refused; unknown names refused
    with pytest.raises(SnapshotError, match="already exists"):
        snapshot_index(idx_dir, repo, name="s1")
    with pytest.raises(SnapshotError, match="unknown snapshot"):
        restore_index(repo, "nope", str(tmp_path / "r2"))


def test_restore_refuses_non_empty_dest(ray_session, tmp_path):
    """A restore never deletes data it did not create: a non-empty
    dest_dir raises and its contents survive; an empty one is fine."""
    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.pipelines.snapshot import (
        SnapshotError,
        restore_index,
        snapshot_index,
    )

    t = pq.read_table(SRC).slice(0, 100)
    idx_dir = str(tmp_path / "idx")
    repo = str(tmp_path / "repo")
    build_index(rd.from_arrow(t), idx_dir, analyzer="simple",
                num_buckets=4, lang_col="lang")
    snapshot_index(idx_dir, repo, name="s1")

    dest = tmp_path / "dest"
    dest.mkdir()
    (dest / "notes.txt").write_text("keep me")
    with pytest.raises(SnapshotError, match="not empty"):
        restore_index(repo, "s1", str(dest))
    assert (dest / "notes.txt").read_text() == "keep me"
    assert sorted(os.listdir(dest)) == ["notes.txt"]

    empty = tmp_path / "empty"
    empty.mkdir()
    restore_index(repo, "s1", str(empty))
    assert _ranked(BM25Index(str(empty))) == _ranked(BM25Index(idx_dir))
