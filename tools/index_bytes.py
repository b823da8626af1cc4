"""Where an index's bytes go: compressed bytes per column of the posting
blocks, the docs catalog and the tombstones, over the base and every
committed segment, plus each file's footer and the bytes between column
chunks, and every other file under the index dir.

    python tools/index_bytes.py INDEX_DIR
    python tools/index_bytes.py --sweep INDEX_DIR
    python tools/index_bytes.py --levels INDEX_DIR [INDEX_DIR ...]
    python tools/index_bytes.py --bench-index N_PAGES SEED INDEX_DIR

Prints one row per (table, column) with its compressed bytes, bytes per
indexed doc (the manifest's ``n_docs``) and its uncompressed bytes
(``raw``: the encoded pages before the codec, page headers included) —
a change to what a column stores can move the two very differently —
then per table:

* ``(footer)``: the parquet footers (file metadata, length and magic),
  without the embedded Arrow schema;
* ``(footer: Arrow schema)``: the base64 Arrow schema a writer with
  ``store_schema=True`` keeps in the footer's key-value metadata;
* ``(between chunks)``: the rest, mostly the copy of each column chunk's
  metadata that the writer puts after the chunk;

and a line with the table's files, row groups and column chunks and its
framing per chunk: the footer and between-chunk bytes over the number
of column chunks, what each more column or row group costs before its
data.

The total counts every file under ``INDEX_DIR`` except an
``extracted/`` checkpoint, the way ``perfbench`` measures
``index_bytes_per_doc``.  Under the table it prints the build's
balance: the max/mean of the postings per encode bucket (the shuffle's
skew; a postings file's bucket is in its name, ``manifest.postings_files``),
and, over the hot terms of the manifest's ``salt_spec``, the
median and the max of each term's max/mean of postings per salt, so a
salt or bucket change shows its skew cost next to its bytes.

``--sweep`` rewrites every column, one at a time and keeping its row
groups, under each candidate encoding at the table's compression in
``INDEX_WRITE_OPTIONS``, and prints the column's compressed bytes per
candidate: ``now`` is the index's own bytes, ``-`` marks an encoding
parquet does not allow on the column's type, ``!`` one that DuckDB
cannot read, and ``*`` the smallest one it can.  Run it on a new corpus
to re-derive the writer policy.

``--levels`` rewrites each table of every given index, keeping its row
groups, encodings and statistics as ``INDEX_WRITE_OPTIONS`` has them, at
every zstd level from 9 to 19, and prints per (index, table, level) the
total bytes, the single-thread write of the whole table (ms) and a
serving read of all its row groups (ms; the columns
``BM25Index._load_terms`` reads from postings, ``doc_id``, ``url`` and
``text`` from docs, ``use_threads=False``), each the least process CPU
time of ``REPEATS`` runs.  ``*`` marks the level the policy's rule picks over
all the given indexes (``codec.py``): a level replaces the current
choice only if, on every index, it is at least 1 % smaller than the
choice, writes in at most 4x the level-9 time, reads no slower than
level 9 (within ``READ_SLACK``, the run-to-run spread of a read) and
DuckDB reads it.  ``!`` marks a level DuckDB cannot read.

``--bench-index`` builds the ``perfbench`` index of ``SEED`` over
``N_PAGES`` pages (``perfbench.inputs.FULL`` with only ``n_pages``
changed) into ``INDEX_DIR``, to give ``--levels`` its 6k and 24k
builds.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import struct
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.append(str(Path(__file__).resolve().parents[1]))

TABLES = ("postings", "docs", "tombstones")
CANDIDATES = ("PLAIN", "DICTIONARY", "DELTA_BINARY_PACKED",
              "DELTA_LENGTH_BYTE_ARRAY", "DELTA_BYTE_ARRAY",
              "BYTE_STREAM_SPLIT")
LEVELS = range(9, 20)
REPEATS = 5
READ_SLACK = 1.05
# the columns a serving handle reads from each table's row groups
SERVING_COLUMNS = {
    "postings": ["term", "salt", "first_doc", "n", "doc_blob", "tf_blob",
                 "max_wdl"],
    "docs": ["doc_id", "url", "text"],
    "tombstones": ["doc_id"],
}
SHORT = {"PLAIN": "plain", "DICTIONARY": "dict",
         "DELTA_BINARY_PACKED": "delta", "DELTA_LENGTH_BYTE_ARRAY": "dlba",
         "DELTA_BYTE_ARRAY": "dba", "BYTE_STREAM_SPLIT": "bss"}


def segment_dirs(index_dir: str) -> list[str]:
    """The base and every manifest-committed segment dir."""
    with open(os.path.join(index_dir, "manifest.json")) as f:
        m = json.load(f)
    return [index_dir] + [os.path.join(index_dir, "segments", s["name"])
                          for s in m.get("segments", [])
                          if s["name"] != "base"]


def table_files(index_dir: str) -> dict[str, list[str]]:
    """Parquet files per table over the base and every manifest-committed
    segment; tombstones live only at the index root."""
    dirs = segment_dirs(index_dir)
    out = {t: [p for d in dirs
               for p in sorted(glob.glob(f"{d}/{t}/*.parquet"))]
           for t in ("postings", "docs")}
    out["tombstones"] = sorted(glob.glob(f"{index_dir}/tombstones/*.parquet"))
    return out


def footer_bytes(path: str) -> int:
    """The footer's thrift length plus its 4-byte length and magic."""
    with open(path, "rb") as f:
        f.seek(-8, os.SEEK_END)
        return struct.unpack("<i", f.read(4))[0] + 8


def file_bytes(path: str) -> tuple[dict[str, int], dict[str, int],
                                   dict[str, int]]:
    """({column: compressed bytes}, {part: bytes}, {column: uncompressed
    bytes}) for one parquet file; the parts are the footer, its Arrow
    schema and the bytes between chunks, and sum with the columns'
    compressed bytes to the file size."""
    md = pq.ParquetFile(path).metadata
    cols: dict[str, int] = defaultdict(int)
    raw: dict[str, int] = defaultdict(int)
    for rg in range(md.num_row_groups):
        for ci in range(md.num_columns):
            c = md.row_group(rg).column(ci)
            cols[c.path_in_schema] += c.total_compressed_size
            raw[c.path_in_schema] += c.total_uncompressed_size
    schema = len((md.metadata or {}).get(b"ARROW:schema", b""))
    footer = footer_bytes(path)
    rest = os.path.getsize(path) - footer - sum(cols.values())
    return cols, {"(footer)": footer - schema,
                  "(footer: Arrow schema)": schema,
                  "(between chunks)": rest}, raw


def column_bytes(index_dir: str) -> tuple[dict, dict, dict, int, dict,
                                             dict]:
    """({table: {column: bytes}}, {table: {part: bytes}}, {table: file
    bytes}, the bytes of every file under ``index_dir`` but
    ``extracted/``, {table: {column: uncompressed bytes}}, {table:
    {"files", "row groups", "chunks": count}})."""
    cols = {t: defaultdict(int) for t in TABLES}
    raw = {t: defaultdict(int) for t in TABLES}
    parts = {t: defaultdict(int) for t in TABLES}
    files = {t: 0 for t in TABLES}
    counts = {t: defaultdict(int) for t in TABLES}
    for table, paths in table_files(index_dir).items():
        for path in paths:
            files[table] += os.path.getsize(path)
            md = pq.ParquetFile(path).metadata
            counts[table]["files"] += 1
            counts[table]["row groups"] += md.num_row_groups
            counts[table]["chunks"] += md.num_row_groups * md.num_columns
            c, p, r = file_bytes(path)
            for k, v in c.items():
                cols[table][k] += v
                raw[table][k] += r[k]
            for k, v in p.items():
                parts[table][k] += v
    total = 0
    for root, dirs, names in os.walk(index_dir):
        dirs[:] = [x for x in dirs if x != "extracted"]
        total += sum(os.path.getsize(os.path.join(root, n)) for n in names)
    return cols, parts, files, total, raw, counts


def balance(index_dir: str, m: dict) -> tuple[float, list[float]]:
    """(max/mean of the postings per bucket over the manifest's
    ``num_buckets``, [max/mean of the postings per salt of each hot
    term of its ``salt_spec``]), over the base and every segment."""
    import numpy as np

    from pdfsearch_ray.state.manifest import postings_files

    per_bucket = np.zeros(m["num_buckets"], dtype=np.int64)
    per_salt = {t: np.zeros(s, dtype=np.int64)
                for t, s in (m.get("salt_spec") or {}).items()}
    for path, bucket in [pb for d in segment_dirs(index_dir)
                         for pb in postings_files(d)]:
        t = pq.read_table(path, columns=["term", "salt", "n"])
        n = t["n"].to_numpy()
        per_bucket[bucket] += n.sum()
        for term, salt, k in zip(t["term"].to_pylist(),
                                 t["salt"].to_pylist(), n.tolist()):
            if term in per_salt:
                per_salt[term][salt] += k
    ratio = [c.max() / c.mean() for c in per_salt.values() if c.any()]
    return per_bucket.max() / max(per_bucket.mean(), 1e-12), ratio


def _write_column(sink, t: list[pa.Table], encoding: str, table: str):
    """Write the one-column row groups ``t`` to ``sink`` under
    ``encoding`` with ``table``'s compression and statistics from the
    writer policy (page headers carry the statistics)."""
    from pdfsearch_ray.index.codec import INDEX_WRITE_OPTIONS

    opts = INDEX_WRITE_OPTIONS[table]
    name = t[0].column_names[0]
    kw = ({"use_dictionary": True} if encoding == "DICTIONARY" else
          {"use_dictionary": False, "column_encoding": {name: encoding}})
    stats = [name] if name in opts["write_statistics"] else False
    with pq.ParquetWriter(sink, t[0].schema, compression=opts["compression"],
                          compression_level=opts["compression_level"],
                          write_statistics=stats, store_schema=False,
                          **kw) as w:
        for rg in t:
            w.write_table(rg)


def _duckdb_reads(path: str) -> bool:
    import duckdb

    try:
        duckdb.sql(f"SELECT * FROM read_parquet('{path}')").fetchall()
        return True
    except duckdb.Error:
        return False


def sweep(index_dir: str) -> dict[str, dict[str, dict]]:
    """{table: {column: {candidate: (bytes, whether DuckDB reads it), or
    None if parquet does not allow it on the column's type}}}, with the
    index's own bytes as ``now``."""
    cols = column_bytes(index_dir)[0]
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for table, paths in table_files(index_dir).items():
            if not paths:
                continue
            out[table] = {}
            for name in pq.read_schema(paths[0]).names:
                groups = []
                for path in paths:
                    pf = pq.ParquetFile(path)
                    groups.append([pf.read_row_group(rg, columns=[name])
                                   for rg in range(pf.num_row_groups)])
                res: dict = {"now": cols[table][name]}
                for enc in CANDIDATES:
                    try:
                        nbytes = 0
                        for g in groups:
                            buf = pa.BufferOutputStream()
                            _write_column(buf, g, enc, table)
                            md = pq.ParquetFile(
                                pa.BufferReader(buf.getvalue())).metadata
                            nbytes += sum(
                                md.row_group(i).column(0).total_compressed_size
                                for i in range(md.num_row_groups))
                    except (pa.ArrowException, OSError, ValueError):
                        res[enc] = None
                        continue
                    probe = os.path.join(tmp, "probe.parquet")
                    _write_column(probe, groups[0], enc, table)
                    res[enc] = (nbytes, _duckdb_reads(probe))
                out[table][name] = res
    return out


def print_sweep(index_dir: str) -> None:
    res = sweep(index_dir)
    print(f"{'table':<11} {'column':<11} {'now':>9}"
          + "".join(f" {SHORT[c]:>10}" for c in CANDIDATES))
    for table, columns in res.items():
        for name, r in columns.items():
            best = min((r[c][0] for c in CANDIDATES
                        if r[c] is not None and r[c][1]), default=None)
            cells = ["-" if r[c] is None else
                     f"{r[c][0]:,}{'' if r[c][1] else '!'}"
                     f"{'*' if r[c][1] and r[c][0] == best else ''}"
                     for c in CANDIDATES]
            print(f"{table:<11} {name:<11} {r['now']:>9,}"
                  + "".join(f" {x:>10}" for x in cells))


def _row_groups(paths: list[str]) -> list[list[pa.Table]]:
    """Every file's row groups, in memory."""
    out = []
    for path in paths:
        pf = pq.ParquetFile(path)
        out.append([pf.read_row_group(rg) for rg in range(pf.num_row_groups)])
    return out


def _fastest(fns: dict) -> dict:
    """{key: the least CPU time of ``REPEATS`` runs of ``fns[key]``, in
    ms}.  The runs are timed in this process's CPU time, not wall time,
    so time the host gives to other work (steal, other processes) is not
    counted; writes and reads here run on one thread.  The runs go
    round-robin over the keys, so a slow phase of the host falls on
    every key alike, and each timed run follows an untimed one of the
    same key, so the one-off costs of switching keys (fresh allocations
    for another level's zstd contexts) fall outside the timing, as they
    do for a writer that stays at one level."""
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(REPEATS):
        for key, fn in fns.items():
            fn()
            t = time.process_time()
            fn()
            best[key] = min(best[key], (time.process_time() - t) * 1e3)
    return best


def level_costs(index_dir: str) -> dict[str, dict[int, dict]]:
    """{table: {level: {"bytes", "write_ms", "read_ms", "duckdb"}}}: each
    table's files rewritten at ``level`` under the rest of its writer
    policy, keeping the row groups."""
    from pdfsearch_ray.index.codec import INDEX_WRITE_OPTIONS

    def write(files: list[list[pa.Table]], opts: dict) -> list[pa.Buffer]:
        bufs = []
        for groups in files:
            sink = pa.BufferOutputStream()
            with pq.ParquetWriter(sink, groups[0].schema, **opts) as w:
                for rg in groups:
                    w.write_table(rg)
            bufs.append(sink.getvalue())
        return bufs

    def read(bufs: list[pa.Buffer], cols: list[str]) -> None:
        for buf in bufs:
            pf = pq.ParquetFile(pa.BufferReader(buf))
            for rg in range(pf.num_row_groups):
                pf.read_row_group(rg, columns=cols, use_threads=False)

    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        probe = os.path.join(tmp, "probe.parquet")
        for table, paths in table_files(index_dir).items():
            if not paths:
                continue
            files = _row_groups(paths)
            opts = {level: dict(INDEX_WRITE_OPTIONS[table],
                                compression_level=level) for level in LEVELS}
            bufs = {level: write(files, opts[level]) for level in LEVELS}
            write_ms = _fastest({level: lambda o=opts[level]: write(files, o)
                                 for level in LEVELS})
            cols = SERVING_COLUMNS[table]
            read_ms = _fastest({level: lambda b=bufs[level]: read(b, cols)
                                for level in LEVELS})
            out[table] = {}
            for level in LEVELS:
                with open(probe, "wb") as f:
                    f.write(bufs[level][0])
                out[table][level] = {
                    "bytes": sum(b.size for b in bufs[level]),
                    "write_ms": write_ms[level], "read_ms": read_ms[level],
                    "duckdb": _duckdb_reads(probe)}
    return out


def rule_pick(costs: list[dict[int, dict]]) -> int:
    """The level the writer policy's rule keeps for one table, given its
    ``level_costs`` on each build: starting from 9, a higher level
    replaces the choice only if on every build it is at least 1 %
    smaller than the choice, writes in at most 4x the level-9 time,
    reads no slower than level 9 and DuckDB reads it."""
    pick = 9
    for level in LEVELS[1:]:
        if all(c[level]["duckdb"]
               and c[level]["bytes"] <= 0.99 * c[pick]["bytes"]
               and c[level]["write_ms"] <= 4 * c[9]["write_ms"]
               and c[level]["read_ms"] <= READ_SLACK * c[9]["read_ms"]
               for c in costs):
            pick = level
    return pick


def print_levels(index_dirs: list[str]) -> None:
    costs = {d: level_costs(d) for d in index_dirs}
    tables = [t for t in TABLES if all(t in c for c in costs.values())]
    picks = {t: rule_pick([c[t] for c in costs.values()]) for t in tables}
    print(f"{'index':<24} {'table':<11} {'level':>5} {'bytes':>11}"
          f" {'write ms':>9} {'read ms':>8}")
    for d, c in costs.items():
        name = os.path.basename(os.path.normpath(d))[-24:]
        for table in tables:
            for level, r in c[table].items():
                mark = ("*" if level == picks[table] else "") + (
                    "" if r["duckdb"] else "!")
                print(f"{name:<24} {table:<11} {level:>4}{mark:<1}"
                      f" {r['bytes']:>11,} {r['write_ms']:>9.1f}"
                      f" {r['read_ms']:>8.2f}")


def build_bench_index(n_pages: int, seed: int, index_dir: str) -> None:
    """The ``perfbench`` build of ``seed`` over ``n_pages`` pages, its
    pages written next to ``index_dir``."""
    import dataclasses

    import ray

    from perfbench import inputs
    from pdfsearch_ray.pipelines.build import build_from_pages

    sc = dataclasses.replace(inputs.FULL, n_pages=n_pages)
    pages = os.path.normpath(index_dir) + ".pages"
    inputs.write_pages(inputs.pages_table(seed, sc), pages, sc)
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
    try:
        m = build_from_pages(pages, index_dir, resume=False, dedup=True,
                             sample_rate=0.1, auto_salt=True,
                             num_buckets=sc.num_buckets,
                             tokenize_batch_size=2048)
    finally:
        ray.shutdown()
    print(f"{index_dir}: {m.n_docs:,} docs")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--sweep", action="store_true")
    mode.add_argument("--levels", action="store_true")
    mode.add_argument("--bench-index", nargs=2, type=int,
                      metavar=("N_PAGES", "SEED"))
    ap.add_argument("index_dir", nargs="+")
    args = ap.parse_args(argv)
    if args.levels:
        print_levels(args.index_dir)
        return 0
    if len(args.index_dir) != 1:
        ap.error("give one INDEX_DIR")
    index_dir = args.index_dir[0]
    if args.bench_index:
        build_bench_index(*args.bench_index, index_dir)
        return 0
    if args.sweep:
        print_sweep(index_dir)
        return 0
    with open(os.path.join(index_dir, "manifest.json")) as f:
        m = json.load(f)
    n_docs = max(int(m["n_docs"]), 1)
    cols, parts, files, total, raw, counts = column_bytes(index_dir)

    def row(table: str, name: str, nbytes: int, nraw: str = "") -> None:
        print(f"{table:<10} {name:<22} {nbytes:>12,} {nbytes / n_docs:>9.2f}"
              f" {nraw:>12}")

    print(f"{'table':<10} {'column':<22} {'bytes':>12} {'B/doc':>9}"
          f" {'raw':>12}")
    for table in TABLES:
        if not files[table]:
            continue
        for name, nbytes in sorted(cols[table].items(), key=lambda kv: -kv[1]):
            row(table, name, nbytes, f"{raw[table][name]:,}")
        for name, nbytes in parts[table].items():
            row(table, name, nbytes)
        row(table, "(all)", files[table])
        c = counts[table]
        framing = parts[table]["(footer)"] + parts[table]["(between chunks)"]
        print(f"{table:<10} {c['files']:,} files, {c['row groups']:,} row"
              f" groups, {c['chunks']:,} column chunks:"
              f" {framing / max(c['chunks'], 1):.1f} B framing per chunk")
    row("other", "(other files)", total - sum(files.values()))
    row("total", f"({n_docs:,} docs)", total)
    buckets, salts = balance(index_dir, m)
    print(f"postings max/mean: {buckets:.3f} over {m['num_buckets']} buckets",
          end="")
    if salts:
        print(f"; per hot term over its salts median "
              f"{statistics.median(salts):.3f}, max {max(salts):.3f}"
              f" ({len(salts)} terms)", end="")
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
