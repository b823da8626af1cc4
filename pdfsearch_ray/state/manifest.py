"""Index manifest: per-build lineage, corpus stats and checkpoint state.

The rebuild's version of the reference's catalog + partition footers
(`file_list.json` at internal/doclib/file_desc.go:13-35 and the
`pagePartition{Offset,Size,Check}` entries at doc_positions.go:41-49):
one JSON document at ``<index_dir>/manifest.json`` recording everything a
query engine needs to open the index without touching the build code, and
everything a restarted build needs to skip finished partitions.

Atomicity: written to a temp file then ``os.replace``d — the rename is
the commit point, mirroring the reference's rollback-on-partial-write
(bleve_pdf.go:342-351).  Per-extract-partition completion markers live in
``<index_dir>/_partitions/<partition_id>.json`` with row counts +
checksums so a rerun can list completed partitions and filter its input
(north_rule: resumable from per-partition checkpoints with lineage).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any

MANIFEST_NAME = "manifest.json"
PARTITIONS_DIR = "_partitions"
# 2: a doc's length is stored once, in the docs catalog's ``dl`` column;
# format-1 posting blocks carried it on every posting (``dl_blob``).
# 3: a posting's positions carry no count (it is the posting's tf), and
# ``last_doc`` is null on single-posting blocks; format-2 blocks began
# each posting's positions with its count and always filled
# ``last_doc``.  ``compact_index`` rewrites an older index.
FORMAT_VERSION = 3


class IndexFormatError(ValueError):
    """The index on disk was written in a format this engine does not
    read."""


@dataclass
class IndexManifest:
    n_docs: int
    avgdl: float
    total_tokens: int
    analyzer: str
    analyzer_version: str
    k1: float
    b: float
    num_buckets: int
    block_size: int
    salt_spec: dict[str, int] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION
    built_at: float = 0.0
    build_metrics: dict[str, Any] = field(default_factory=dict)
    avgdl_exact: bool = True
    # Incremental append (the reference's forceCreate=false reopen path,
    # bleve_glue.go:16-29): exact total token count (total_dl), whether
    # positions are stored, and the committed segment list.  Each entry
    # is {"name", "n_docs", "total_dl", "avgdl_baked"}; "base" denotes
    # the original build at <index_dir>/{docs,postings}, other names
    # live at <index_dir>/segments/<name>/.  A segment dir not listed
    # here is INVISIBLE to queries — the manifest save is the append's
    # atomic commit point.  avgdl_baked is the avgdl its block-max
    # metadata was encoded with; the query engine scales those bounds by
    # max(1, avgdl_now/avgdl_baked) to keep them valid upper bounds.
    total_dl: int = 0
    with_positions: bool = True
    segments: list[dict[str, Any]] = field(default_factory=list)
    # Lazy deletes (the catalog-tombstone analog of bleve_pdf.go:166-175
    # remove()): committed tombstone parquet files under
    # <index_dir>/tombstones/.  Queries exclude tombstoned doc_ids;
    # BM25 stats (N, df, avgdl) intentionally stay pre-delete until
    # compact_index physically drops the rows — Lucene/scorch delete
    # semantics.  A tombstone file not listed here is invisible (the
    # manifest save is the commit point, same rule as segments).
    tombstones: list[str] = field(default_factory=list)

    def save(self, index_dir: str) -> None:
        os.makedirs(index_dir, exist_ok=True)
        path = os.path.join(index_dir, MANIFEST_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(asdict(self), f, indent=1, sort_keys=True)
        os.replace(tmp, path)  # atomic commit

    @classmethod
    def load(cls, index_dir: str) -> "IndexManifest":
        with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
            d = json.load(f)
        d.pop("format_version_check", None)
        return cls(**d)

    def check_format(self, index_dir: str) -> None:
        """Raise ``IndexFormatError`` unless the index is in the format
        this engine reads.  ``compact_index`` reads only the docs catalog
        and the tombstones, so it rewrites an older index in this
        format."""
        if self.format_version != FORMAT_VERSION:
            raise IndexFormatError(
                f"index {index_dir!r} is in format {self.format_version}; "
                f"this engine reads format {FORMAT_VERSION} — rewrite it "
                f"with compact_index({index_dir!r})")

    def tombstone_ids(self, index_dir: str):
        """Sorted int64 doc_ids from the committed tombstone files.
        Lives here, not in the build pipeline, so opening an index for
        serving imports no build code."""
        import numpy as np
        import pyarrow.parquet as pq

        from ..index.arrays import _np

        if not self.tombstones:
            return np.empty(0, dtype=np.int64)
        # ParquetFile.read, not pq.read_table: the latter goes through
        # pyarrow.dataset, which serving never imports; single-threaded,
        # so opening a handle starts no Arrow thread pool
        parts = [
            _np(pq.ParquetFile(f"{index_dir}/tombstones/{f}").read(
                columns=["doc_id"], use_threads=False)["doc_id"])
            for f in self.tombstones
        ]
        return np.unique(np.concatenate(parts)).astype(np.int64)


def partition_marker_path(index_dir: str, partition_id: int) -> str:
    return os.path.join(index_dir, PARTITIONS_DIR, f"{partition_id:06d}.json")


def write_partition_marker(index_dir: str, partition_id: int, info: dict[str, Any]) -> None:
    os.makedirs(os.path.join(index_dir, PARTITIONS_DIR), exist_ok=True)
    path = partition_marker_path(index_dir, partition_id)
    tmp = f"{path}.tmp.{os.getpid()}"
    info = dict(info, partition_id=partition_id, completed_at=time.time())
    with open(tmp, "w") as f:
        json.dump(info, f)
    os.replace(tmp, path)


def validated_completed_partitions(
    out_dir: str,
    descs: list[dict[str, Any]],
    *,
    extractor_version: str,
    lang_allow: tuple[str, ...] | None,
    extra: dict[str, Any] | None = None,
) -> set[int]:
    """Partition ids whose marker matches the CURRENT descriptor + config.

    ``list_partitions`` numbers (file, row_group) pairs by enumeration
    order, so a changed input file set shifts ids; trusting marker
    existence alone would then reuse extractions of *different* row
    groups.  A marker counts as done only if its recorded (path,
    row_group, extractor_version, lang_allow) all match — mirroring
    build_index's .build_config.json fingerprint check.  Markers from
    before these fields existed never validate (safe re-extract).
    """
    want_lang = sorted(lang_allow) if lang_allow else None
    done: set[int] = set()
    for d in descs:
        path = partition_marker_path(out_dir, d["partition_id"])
        try:
            with open(path) as f:
                m = json.load(f)
        except (OSError, ValueError):
            continue
        m_lang = m.get("lang_allow")
        if not (
            m.get("path") == d["path"]
            and m.get("row_group") == d["row_group"]
            and m.get("extractor_version") == extractor_version
            and (sorted(m_lang) if m_lang else None) == want_lang
        ):
            continue
        # fused-stage REQUIREMENTS (pairs spill / sampled stats): a
        # marker satisfies this run if it provides at least what the run
        # needs — a marker with extra fused outputs is still valid, a
        # marker missing a required one (or with mismatched stats
        # config) forces re-extract
        ok = True
        for k, want in (extra or {}).items():
            if want in (False, None):
                continue  # not required by this run
            have = m.get(k)
            if isinstance(want, dict):
                if not isinstance(have, dict) or any(
                    have.get(kk) != vv for kk, vv in want.items()
                ):
                    ok = False
                    break
            elif have != want:
                ok = False
                break
        if ok:
            done.add(d["partition_id"])
    return done


def completed_partitions(index_dir: str) -> set[int]:
    pdir = os.path.join(index_dir, PARTITIONS_DIR)
    if not os.path.isdir(pdir):
        return set()
    out = set()
    for name in os.listdir(pdir):
        if name.endswith(".json"):
            try:
                out.add(int(name[:-5]))
            except ValueError:
                pass
    return out
