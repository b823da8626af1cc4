"""Every run owns its spill: exchanges and gates leave nothing under
``$PDFSEARCH_SPILL_ROOT`` except the fingerprinted ``*_cache``
artifacts, whether they return or raise (functions/spill.py)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"

# every driver gate that spills: exchanges, scoped layouts, and the
# fulltext gates that build a whole index per call
SPILLING_GATES = (
    "running_totals", "basket_pairs", "above_avg_orders",
    "anti_join_customers", "orders_by_nation", "revenue_rollup",
    "revenue_cube", "user_sessions", "asof_join_events", "funnel_counts",
    "daily_active_users", "event_transitions", "minhash_dedup",
    "ngram_jaccard", "chunk_dedup", "source_overlap", "link_hits",
    "link_components", "crawl_frontier", "docid_remap", "tfidf_topk",
    "sequence_pack", "shard_layout", "ann_lsh", "fulltext_topk",
    "fulltext_topk_simple", "unit_topk",
)


def _leftovers(root: str) -> list[str]:
    return sorted(d for d in os.listdir(root) if not d.endswith("_cache"))


def test_gates_and_lifecycle_leave_only_caches(ray_session, tmp_path,
                                               monkeypatch):
    import ray.data as rd

    import __ray_entry__ as entry
    from pdfsearch_ray.functions.tables import block_tables
    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               dup_loser_ids,
                                               duplicate_doc_ids)

    root = str(tmp_path / "spill")
    monkeypatch.setenv("PDFSEARCH_SPILL_ROOT", root)
    qs = entry.queries()
    for name in SPILLING_GATES:
        res = qs[name](SF)
        if isinstance(res, rd.Dataset):
            block_tables(res)
        assert _leftovers(root) == [], name

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 2, 5], type=pa.int64()),
        "hash": pa.array(["a", "b", "a", "c", "b"]),
    }))
    assert duplicate_doc_ids(docs).tolist() == [2]
    assert dup_loser_ids(docs).tolist() == [3, 5]
    idx = str(tmp_path / "idx")
    build_index(f"{SF}/documents.parquet", idx, analyzer="simple",
                lang_col="lang", num_buckets=4)
    # the delta repeats committed content, so the known-hash skip join
    # runs and drops those rows
    base = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text", "lang"]).take(20)
    delta = pa.table({
        "doc_id": pa.array(10**12 + np.arange(len(base)), type=pa.int64()),
        "text": [r["text"] for r in base],
        "lang": [r["lang"] for r in base],
    })
    stats = append_index(rd.from_arrow(delta), idx, lang_col="lang",
                         audit_unique=True)
    assert stats["n_added"] == 0
    assert _leftovers(root) == []


def test_raising_bucket_function_leaves_no_spill(ray_session, tmp_path,
                                                 monkeypatch):
    import ray.data as rd

    from pdfsearch_ray.functions.spill import bucket_exchange, spill_dir

    root = str(tmp_path / "spill")
    monkeypatch.setenv("PDFSEARCH_SPILL_ROOT", root)
    ds = rd.from_arrow(pa.table({"k": np.arange(200, dtype=np.int64)}))

    def boom(b: int, t: pa.Table) -> pa.Table:
        if b == 3:
            raise ValueError("bucket 3 fails")
        return t

    with pytest.raises(Exception, match="bucket 3 fails"):
        bucket_exchange([ds], ["k"], 8, boom)
    assert os.listdir(root) == []

    with pytest.raises(RuntimeError):
        with spill_dir("scoped_") as d:
            open(os.path.join(d, "f"), "w").close()
            raise RuntimeError("caller fails")
    assert os.listdir(root) == []


def test_bucket_exchange_sides_and_missing_buckets(ray_session, tmp_path,
                                                   monkeypatch):
    """Two sides co-partition on mix64(key); a bucket with no rows on
    one side reaches the function as None, and a None result drops the
    bucket."""
    import ray.data as rd

    from pdfsearch_ray.functions.joins import hash_join
    from pdfsearch_ray.functions.spill import bucket_exchange
    from pdfsearch_ray.functions.tables import block_tables

    monkeypatch.setenv("PDFSEARCH_SPILL_ROOT", str(tmp_path / "spill"))
    left = rd.from_arrow(pa.table({"a": np.arange(0, 60, dtype=np.int64),
                                   "x": np.arange(60, dtype=np.int64)}))
    right = rd.from_arrow(pa.table({"b": np.arange(40, 100, dtype=np.int64),
                                    "y": np.arange(60, dtype=np.int64)}))
    j = pa.concat_tables(block_tables(
        hash_join(left, right, left_on="a", right_on="b", num_buckets=8)))
    j = j.sort_by("a")
    assert j["a"].to_pylist() == list(range(40, 60))
    assert j["x"].to_pylist() == list(range(40, 60))
    assert j["y"].to_pylist() == list(range(0, 20))

    def count(b: int, lt, rt):
        return pa.table({"b": [b], "l": [0 if lt is None else lt.num_rows],
                         "r": [0 if rt is None else rt.num_rows]})

    few = rd.from_arrow(pa.table({"b": pa.array([40, 41], type=pa.int64()),
                                  "y": pa.array([0, 1], type=pa.int64())}))
    out = pa.concat_tables(block_tables(
        bucket_exchange([left, few], ["a", "b"], 8, count)))
    assert sum(out["l"].to_pylist()) == 60
    assert sum(out["r"].to_pylist()) == 2
    assert 0 in out["r"].to_pylist()    # a bucket with no right rows
    assert len(set(out["b"].to_pylist())) == out.num_rows
    assert bucket_exchange([left], ["a"], 8, lambda b, t: None).count() == 0


def test_cached_dir_is_not_reused_across_format_versions(tmp_path,
                                                        monkeypatch):
    """An artifact cached under another index format version (or
    analyzer version) is not handed out: the key folds both in, so the
    same key parts build a new entry."""
    from pdfsearch_ray.functions import spill

    monkeypatch.setenv("PDFSEARCH_SPILL_ROOT", str(tmp_path))
    built = []

    def build(out: str) -> None:
        os.makedirs(out)
        with open(os.path.join(out, "done"), "w") as f:
            f.write(str(spill.FORMAT_VERSION))
        built.append(out)

    now = spill.cached_dir("t", ("same", 1), "done", build)
    assert spill.cached_dir("t", ("same", 1), "done", build) == now
    assert len(built) == 1
    monkeypatch.setattr(spill, "FORMAT_VERSION", spill.FORMAT_VERSION - 1)
    old = spill.cached_dir("t", ("same", 1), "done", build)
    assert old != now and len(built) == 2
    with open(os.path.join(old, "done")) as f:
        assert f.read() == str(spill.FORMAT_VERSION)
    monkeypatch.setattr(spill, "ANALYZER_VERSION", "other")
    assert spill.cached_dir("t", ("same", 1), "done", build) not in (old,
                                                                    now)
    assert len(built) == 3
