"""Pages-corpus source: partitioned, checkpointed extract stage.

The rebuild of the reference's dispatcher→extract-worker fan-out
(internal/doclib/index_pdfs.go:69-95,204-251), re-expressed Ray-Data-first
with deterministic identity and resume:

* The driver enumerates input parquet *row groups* (metadata only — no
  data read) into partition descriptors; a descriptor Dataset fans out to
  extract tasks, so parallelism == row groups regardless of file count.
* Each task reads ONE row group with pyarrow, extracts text, assigns
  ``doc_id = (partition_id << 32) | row_in_partition`` (deterministic and
  dense per partition — the "%04X.%d" generalization, bleve_pdf.go:57 —
  so results are identical at ANY cluster parallelism), and writes its
  output parquet atomically (tmp + rename) plus a completion marker.
* On rerun, descriptors with a marker are skipped: resumable from
  per-partition checkpoints with lineage (north_rule), the real version
  of the reference's rollback-on-partial-write (bleve_pdf.go:342-351).
"""

from __future__ import annotations

import glob
import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..functions.tables import block_tables
from ..stages.extract import EXTRACTOR_VERSION, HtmlExtractor
from ..state.manifest import validated_completed_partitions, write_partition_marker


_PARALLEL_LIST_THRESHOLD = 64


def list_partitions(input_path: str | list[str]) -> list[dict]:
    """Enumerate (file, row_group) partitions from parquet metadata.

    Partition ids are assigned in sorted (path, row_group) order — the
    id assignment itself is deterministic and cheap; the metadata READS
    (one footer per file) are the O(files) cost and are fanned out as
    Ray tasks beyond ``_PARALLEL_LIST_THRESHOLD`` files, so footer
    enumeration is not a serial driver loop over 10^6+ files."""
    if isinstance(input_path, str):
        if os.path.isdir(input_path):
            files = sorted(glob.glob(os.path.join(input_path, "*.parquet")))
        else:
            files = [input_path]
    else:
        files = sorted(input_path)

    if len(files) < _PARALLEL_LIST_THRESHOLD:
        per_file = [(f, _file_row_groups(f)) for f in files]
    else:
        def read_meta(batch: pa.Table) -> pa.Table:
            paths, rgs, rows = [], [], []
            for f in batch["path"].to_pylist():
                for rg, n in enumerate(_file_row_groups(f)):
                    paths.append(f)
                    rgs.append(rg)
                    rows.append(n)
            return pa.table({
                "path": pa.array(paths, type=pa.string()),
                "row_group": pa.array(rgs, type=pa.int64()),
                "n_rows": pa.array(rows, type=pa.int64()),
            })

        meta = (
            rd.from_items([{"path": f} for f in files],
                          override_num_blocks=min(len(files), 256))
            .map_batches(read_meta, batch_format="pyarrow")
            .to_pandas()
        )
        meta = meta.sort_values(["path", "row_group"], kind="mergesort")
        grouped: dict[str, list[int]] = {}
        for p, n in zip(meta["path"], meta["n_rows"]):
            grouped.setdefault(p, []).append(int(n))
        per_file = [(f, grouped.get(f, [])) for f in files]

    descs = []
    pid = 0
    for f, row_counts in per_file:
        for rg, n in enumerate(row_counts):
            descs.append({
                "partition_id": pid,
                "path": f,
                "row_group": rg,
                "n_rows": n,
            })
            pid += 1
    return descs


def _file_row_groups(path: str) -> list[int]:
    md = pq.ParquetFile(path).metadata
    return [md.row_group(rg).num_rows for rg in range(md.num_row_groups)]


class _ExtractPartition:
    """Task body: descriptor rows → extracted parquet + marker; emits one
    summary row per partition (the lineage record).

    Fused side-work while the partition's text is ALREADY in memory
    (one read, one pass — each fused stage removes a full corpus re-read
    and a pipeline barrier downstream):
    * ``pairs``: a (hash, doc_id) parquet sorted by hash with small row
      groups — the map side of the exact-dedup shuffle; loser tasks
      later prune by hash range (dup_loser_ids_from_extract).
    * ``stats_*``: the hot-term sample (sampled doc count and near-hot
      per-term df partials, ``build.sampled_df``) under the build's
      analyzer, recorded in the marker — a sampled ``auto_salt`` build
      reads its hot terms from the markers instead of re-reading text."""

    def __init__(self, out_dir: str, lang_allow: tuple[str, ...] | None,
                 strict: bool = False,
                 pairs: bool = False,
                 stats_analyzer: str | None = None,
                 stats_rate: float = 0.1):
        self.out_dir = out_dir
        self.lang_allow = lang_allow
        self.extractor = HtmlExtractor(lang_allow, strict=strict)
        self.pairs = pairs
        self.stats_analyzer = stats_analyzer
        self.stats_rate = stats_rate
        if stats_analyzer:
            from ..analysis.analyzer import get_analyzer

            self._analyze = get_analyzer(stats_analyzer)

    def _partition_stats(self, extracted: pa.Table) -> dict:
        """This partition's hot-term sample: analyzed ONCE here, summed
        from the markers at build time."""
        from ..pipelines.build import sampled_df

        ndocs, hot = sampled_df(extracted["doc_id"].to_numpy(),
                                extracted["text"].to_pylist(),
                                self._analyze, self.stats_rate)
        return {"n_docs": ndocs, "df_top": hot,
                "rate": self.stats_rate, "analyzer": self.stats_analyzer}

    def _write_pairs(self, extracted: pa.Table, pid: int) -> None:
        import pyarrow.compute as pc

        pairs = pa.table({
            "hash": extracted["hash"],
            "doc_id": extracted["doc_id"],
        })
        order = pc.sort_indices(pairs, sort_keys=[("hash", "ascending")])
        pairs = pairs.take(order)
        final = os.path.join(self.out_dir, f"pairs-{pid:06d}.parquet")
        tmp = final + f".tmp.{os.getpid()}"
        pq.write_table(pairs, tmp, row_group_size=8192)
        os.replace(tmp, final)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_rows: dict[str, list] = {
            "partition_id": [], "rows_in": [], "rows_out": [], "sec": [],
            "lang_filtered": [], "empty_or_error": [], "worker_pid": [],
        }
        for i in range(batch.num_rows):
            pid = batch["partition_id"][i].as_py()
            path = batch["path"][i].as_py()
            rg = batch["row_group"][i].as_py()
            t0 = time.perf_counter()
            # use_threads=False: many extract tasks run concurrently; a
            # per-task thread pool would oversubscribe the node
            src = pq.ParquetFile(path).read_row_group(
                rg, columns=["url", "html", "lang"], use_threads=False
            )
            n = src.num_rows
            src = src.append_column(
                "partition_id", pa.array([pid] * n, type=pa.int64())
            ).append_column(
                "row_offset", pa.array(range(n), type=pa.int64())
            )
            extracted = self.extractor(src)
            final = os.path.join(self.out_dir, f"part-{pid:06d}.parquet")
            tmp = final + f".tmp.{os.getpid()}"
            pq.write_table(extracted, tmp)
            os.replace(tmp, final)  # atomic commit
            if self.pairs:
                self._write_pairs(extracted, pid)
            stats = (self._partition_stats(extracted)
                     if self.stats_analyzer else None)
            dt = time.perf_counter() - t0
            write_partition_marker(
                self.out_dir,
                pid,
                {
                    "rows_in": n,
                    "rows_out": extracted.num_rows,
                    "stats": stats,
                    "pairs": self.pairs,
                    "doc_id_sum": int(pa.compute.sum(extracted["doc_id"]).as_py() or 0),
                    "extractor_version": EXTRACTOR_VERSION,
                    # identity + config fields so resume can validate the
                    # marker still describes THIS row group under THIS
                    # config (see validated_completed_partitions)
                    "path": path,
                    "row_group": rg,
                    "lang_allow": list(self.lang_allow) if self.lang_allow else None,
                    # skip-and-count lineage (reference prints its skipped
                    # count, index_pdfs.go:108-113; we persist per partition)
                    "lang_filtered": self.extractor.last_counts.get("lang_filtered", 0),
                    "empty_or_error": self.extractor.last_counts.get("empty_or_error", 0),
                    "sec": round(dt, 4),
                },
            )
            out_rows["partition_id"].append(pid)
            out_rows["rows_in"].append(n)
            out_rows["rows_out"].append(extracted.num_rows)
            out_rows["sec"].append(dt)
            out_rows["lang_filtered"].append(
                self.extractor.last_counts.get("lang_filtered", 0))
            out_rows["empty_or_error"].append(
                self.extractor.last_counts.get("empty_or_error", 0))
            out_rows["worker_pid"].append(os.getpid())
        return pa.table(
            {
                "partition_id": pa.array(out_rows["partition_id"], type=pa.int64()),
                "rows_in": pa.array(out_rows["rows_in"], type=pa.int64()),
                "rows_out": pa.array(out_rows["rows_out"], type=pa.int64()),
                "sec": pa.array(out_rows["sec"], type=pa.float64()),
                "lang_filtered": pa.array(out_rows["lang_filtered"], type=pa.int64()),
                "empty_or_error": pa.array(out_rows["empty_or_error"], type=pa.int64()),
                "worker_pid": pa.array(out_rows["worker_pid"], type=pa.int64()),
            }
        )


_WORKER_EXTRACTORS: dict = {}


def _extract_partition_task(batch: pa.Table, out_dir: str,
                            lang_allow: tuple[str, ...] | None,
                            strict: bool = False,
                            pairs: bool = False,
                            stats_analyzer: str | None = None,
                            stats_rate: float = 0.1) -> pa.Table:
    key = (out_dir, tuple(lang_allow) if lang_allow else None, strict,
           pairs, stats_analyzer, stats_rate)
    ex = _WORKER_EXTRACTORS.get(key)
    if ex is None:
        ex = _WORKER_EXTRACTORS[key] = _ExtractPartition(
            out_dir, lang_allow, strict=strict, pairs=pairs,
            stats_analyzer=stats_analyzer, stats_rate=stats_rate)
    return ex(batch)


def worker_profiles(res, wall_sec: float) -> list[dict]:
    """Per-worker utilization report, busiest first — the reference's
    sorted worker profile print (index_pdfs.go:253-291): docs, busy
    seconds, docs/sec and idle share of the stage wall per worker."""
    out = []
    for pid, grp in res.groupby("worker_pid"):
        busy = float(grp["sec"].sum())
        docs = int(grp["rows_out"].sum())
        out.append({
            "worker_pid": int(pid),
            "partitions": int(len(grp)),
            "docs": docs,
            "busy_sec": round(busy, 3),
            "docs_per_sec": round(docs / busy, 1) if busy > 0 else 0.0,
            "idle_frac": round(max(0.0, 1.0 - busy / wall_sec), 3)
            if wall_sec > 0 else 0.0,
        })
    out.sort(key=lambda d: (-d["busy_sec"], d["worker_pid"]))
    return out


def extract_pages(
    input_path: str | list[str],
    out_dir: str,
    *,
    lang_allow: tuple[str, ...] | None = ("en",),
    resume: bool = True,
    concurrency: int | None = None,
    strict: bool = False,
    pairs: bool = False,
    stats_analyzer: str | None = None,
    stats_rate: float = 0.1,
) -> dict:
    """Run (or resume) the extract checkpoint; returns summary metrics.

    ``strict=True`` is the ExposeErrors/Debug analog
    (index_search.go:190-194): extractor exceptions propagate and fail
    the build instead of skip-and-count.  ``pairs``/``stats_analyzer``
    fuse the dedup pair-spill and the hot-term sample into this single
    read (see _ExtractPartition); resume validates the fused
    config so a rerun with different stats settings re-extracts."""
    os.makedirs(out_dir, exist_ok=True)
    descs = list_partitions(input_path)
    done = (
        validated_completed_partitions(
            out_dir, descs,
            extractor_version=EXTRACTOR_VERSION, lang_allow=lang_allow,
            extra={"pairs": pairs,
                   **({"stats": {"analyzer": stats_analyzer,
                                 "rate": stats_rate}}
                      if stats_analyzer else {})},
        )
        if resume
        else set()
    )
    pending = [d for d in descs if d["partition_id"] not in done]
    if len(pending) > 1:
        # T4/T5 analog (path_utils.go:55-101): schedule big row groups
        # first with a deterministically shuffled head, so the long
        # partitions can't land in the last wave (a measured scaling
        # cost, BASELINE.md) and re-runs see the identical order.
        # Thresholds are relative to the mean row-group size because
        # webtext row groups, unlike the reference's PDF files, are
        # written to a uniform target size.
        from ..functions.paths import size_banded_order

        mean_rows = sum(d["n_rows"] for d in pending) / len(pending)
        pending = size_banded_order(
            pending,
            size_of=lambda d: d["n_rows"],
            key=lambda d: f'{d["path"]}#{d["row_group"]}',
            big_size=2.0 * mean_rows,
            small_size=0.5 * mean_rows,
            head=min(100, len(pending)),
        )
    summary = {
        "partitions": len(descs),
        "skipped": len(descs) - len(pending),
        "extractor_version": EXTRACTOR_VERSION,
    }
    if pending:
        t_run = time.perf_counter()
        ds = rd.from_items(pending, override_num_blocks=len(pending))
        if concurrency:
            # pinned actor pool (explicit resource sizing)
            res = ds.map_batches(
                _ExtractPartition,
                fn_constructor_kwargs=dict(out_dir=out_dir,
                                           lang_allow=lang_allow,
                                           strict=strict, pairs=pairs,
                                           stats_analyzer=stats_analyzer,
                                           stats_rate=stats_rate),
                batch_size=1,
                batch_format="pyarrow",
                concurrency=concurrency,
            ).to_pandas()
        else:
            # task pool with per-worker memoized extractor state — same
            # once-per-worker init as an actor pool without paying actor
            # spawn for a stage of short per-partition tasks
            from functools import partial

            res = ds.map_batches(
                partial(_extract_partition_task, out_dir=out_dir,
                        lang_allow=lang_allow, strict=strict, pairs=pairs,
                        stats_analyzer=stats_analyzer,
                        stats_rate=stats_rate),
                batch_size=1,
                batch_format="pyarrow",
            ).to_pandas()
        wall = time.perf_counter() - t_run
        summary["rows_in"] = int(res["rows_in"].sum())
        summary["rows_out"] = int(res["rows_out"].sum())
        summary["lang_filtered"] = int(res["lang_filtered"].sum())
        summary["empty_or_error"] = int(res["empty_or_error"].sum())
        summary["sec_per_partition_p95"] = float(res["sec"].quantile(0.95)) if len(res) else 0.0
        summary["worker_profiles"] = worker_profiles(res, wall)
    # write a stage-level manifest listing completion state
    with open(os.path.join(out_dir, "_extract_summary.json"), "w") as f:
        json.dump(summary, f)
    return summary


def extracted_dataset(out_dir: str) -> rd.Dataset:
    return rd.read_parquet(sorted(glob.glob(os.path.join(out_dir, "part-*.parquet"))))


def dup_loser_ids_from_extract(out_dir: str, num_buckets: int = 16):
    """Exact-dedup losers from the extract-fused pairs spill — no corpus
    re-read, no map-side shuffle job (extract already wrote one sorted
    (hash, doc_id) file per partition).  Each of ``num_buckets`` tasks
    owns a hash range and reads only the row groups whose hash
    statistics intersect it (files are hash-sorted with small row
    groups), i.e. ~1/B of each file — the reduce side of a merge
    shuffle with footer-level pruning."""
    import numpy as np

    files = sorted(glob.glob(os.path.join(out_dir, "pairs-*.parquet")))
    if not files:
        return np.empty(0, dtype=np.int64)
    # hex-string hash space split into B lexicographic ranges
    bounds = [format(int(i * 16**4 / num_buckets), "04x")
              for i in range(num_buckets + 1)]

    def _losers(batch: pa.Table) -> pa.Table:
        outs = []
        for i in batch["b"].to_pylist():
            lo, hi = bounds[i], bounds[i + 1]
            filt = ([("hash", ">=", lo), ("hash", "<", hi)]
                    if i + 1 < num_buckets else [("hash", ">=", lo)])
            t = pq.read_table(files, columns=["hash", "doc_id"],
                              filters=filt, use_threads=False)
            if t.num_rows == 0:
                continue
            h = t["hash"].to_numpy(zero_copy_only=False)
            ids = t["doc_id"].to_numpy()
            order = np.lexsort((ids, h))
            hs = h[order]
            keep_first = np.ones(hs.size, dtype=bool)
            keep_first[1:] = hs[1:] != hs[:-1]
            outs.append(pa.table({
                "doc_id": pa.array(ids[order][~keep_first])}))
        if not outs:
            return pa.table({"doc_id": pa.array([], type=pa.int64())})
        return pa.concat_tables(outs)

    tabs = block_tables(
        rd.from_items([{"b": i} for i in range(num_buckets)],
                      override_num_blocks=num_buckets)
        .map_batches(_losers, batch_format="pyarrow", batch_size=1)
    )
    if not tabs:
        return np.empty(0, dtype=np.int64)
    return np.sort(pa.concat_tables(tabs)["doc_id"].to_numpy())


def marker_stats(out_dir: str) -> dict | None:
    """Aggregate the extract-fused hot-term sample from the partition
    markers: returns {n_sampled, hot_df: {term: df}, rate, analyzer} or
    None if any marker lacks it (older run)."""
    from ..state.manifest import PARTITIONS_DIR

    pdir = os.path.join(out_dir, PARTITIONS_DIR)
    if not os.path.isdir(pdir):
        return None
    n = 0
    hot: dict[str, int] = {}
    rate = analyzer = None
    for name in sorted(os.listdir(pdir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(pdir, name)) as f:
            m = json.load(f)
        s = m.get("stats")
        if not s:
            return None
        n += s["n_docs"]
        for t, c in s.get("df_top", {}).items():
            hot[t] = hot.get(t, 0) + c
        rate = s.get("rate")
        analyzer = s.get("analyzer")
    return {"n_sampled": n, "hot_df": hot,
            "rate": rate, "analyzer": analyzer}
