"""Results writer caps/dedup (S11/D4 parity), collection utils (D3),
report callback (§2.10)."""

import numpy as np
import pyarrow.parquet as pq

from pdfsearch_ray.functions.collections import (
    int_difference,
    int_intersection,
    int_symmetric_difference,
    int_union,
    min_max,
    string_uniques,
    truncate,
)
from pdfsearch_ray.pipelines.query import Match, MatchSet
from pdfsearch_ray.pipelines.results import match_set_to_table


def test_collections():
    assert int_union([3, 1], [2, 1]).tolist() == [1, 2, 3]
    assert int_intersection([1, 2, 3], [2, 3, 4]).tolist() == [2, 3]
    assert int_difference([1, 2, 3], [2]).tolist() == [1, 3]
    assert int_symmetric_difference([1, 2], [2, 3]).tolist() == [1, 3]
    assert min_max([5, 1, 9]) == (1, 9)
    assert string_uniques(["b", "a", "b", "c", "a"]) == ["b", "a", "c"]
    assert truncate("abcdef", 3) == "abc"
    assert truncate("ab", 3) == "ab"


def _ms(n_matches: int, spans_each: int) -> MatchSet:
    ms = MatchSet(total_matches=n_matches)
    for i in range(n_matches):
        ms.matches.append(
            Match(
                doc_id=i,
                url=f"u{i}",
                score=1.0 / (i + 1),
                spans=[{"start": j, "end": j + 2, "score": 1.0} for j in range(spans_each)],
                line_nums=[1] * spans_each,
                lines=["x"] * spans_each,
            )
        )
    return ms


def test_results_caps():
    t = match_set_to_table("q", _ms(150, 120), max_docs=100, max_spans_per_doc=100)
    assert t.num_rows == 100  # maxPages analog
    assert len(t["spans"][0].as_py()) == 100  # maxRects analog


def test_results_dedup_one_entry_per_doc():
    ms = _ms(3, 1)
    ms.matches.append(ms.matches[0])  # duplicate doc
    t = match_set_to_table("q", ms)
    assert t.num_rows == 3


def test_run_query_set_writes_parquet(ray_session, tmp_path):
    import ray.data as rd
    import pyarrow as pa

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.pipelines.results import run_query_set

    d = str(tmp_path / "idx")
    reports = []
    build_index("/root/testdata/sf0.001/documents.parquet", d,
                analyzer="simple", num_buckets=8, report=reports.append)
    assert any("postings" in r for r in reports)  # report hook fired
    idx = BM25Index(d)
    out_path = str(tmp_path / "results.parquet")
    t = run_query_set(idx, ["data stream", "window merge"], out_path)
    assert t.num_rows > 0
    assert pq.read_table(out_path).num_rows == t.num_rows
    assert idx.doc_count() == 500


def test_crc_framing_and_io_stats(ray_session, tmp_path):
    """F2/F7 parity: every parquet page's CRC-32 is verified on read; a
    payload byte flipped on disk is detected; read/open accounting is
    surfaced."""
    import glob

    import pytest

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.query import BM25Index, CorruptIndexError

    d = str(tmp_path / "idx_crc")
    build_index("/root/testdata/sf0.001/documents.parquet", d,
                analyzer="simple", num_buckets=8)

    idx = BM25Index(d, verify_checksums=True)
    r = idx.search("data stream", max_results=5)
    assert r.total_matches > 0
    assert idx.io_stats["postings_row_groups_read"] > 0
    assert idx.io_stats["docs_row_groups_read"] > 0

    # flip one byte of the first row group's tf_blob pages in place (the
    # chunk's last byte lies in its last data page); a verifying handle
    # must refuse the row group, naming the file and the row group
    f = sorted(glob.glob(f"{d}/postings/*.parquet"))[0]
    meta = pq.ParquetFile(f).metadata.row_group(0)
    col = next(meta.column(i) for i in range(meta.num_columns)
               if meta.column(i).path_in_schema == "tf_blob")
    corrupted_term = pq.ParquetFile(f).read_row_group(
        0, columns=["term"])["term"][0].as_py()
    at = col.data_page_offset + col.total_compressed_size - 1
    with open(f, "r+b") as fh:
        fh.seek(at)
        byte = fh.read(1)[0]
        fh.seek(at)
        fh.write(bytes([byte ^ 0xFF]))

    bad = BM25Index(d, verify_checksums=True)
    with pytest.raises(CorruptIndexError,
                       match=r"row group 0: .*CRC checksum"):
        bad.postings([corrupted_term])
